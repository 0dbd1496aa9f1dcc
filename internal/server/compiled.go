package server

import (
	"fmt"
	"sync"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
)

// This file is the yield-query path. core.Model.DesignInto answers every
// query (single, rendered, batched or version-pinned) without
// allocating, reusing segment hints and a parameter buffer from a
// pooled per-query scratch; the server only converts the request's
// specs and renders the answer, from JSON fragments pre-rendered when
// the model enters the registry.

// CompiledModel is one registry model ready to serve: the model itself
// and the static parts of its response JSON. All fields are read-only
// after CompileModel returns, so any number of query goroutines share
// one instance without synchronisation.
type CompiledModel struct {
	model  *core.Model // answers every query; labels and catalog info
	tenant string      // catalog namespace ("" never occurs; default stays off the wire)
	name   string      // catalog name

	// Pre-rendered response fragments (json.go).
	jsonHead   []byte   // {"model":"<name>"[,"tenant":"<t>"],"targets":[
	paramHeads [][]byte // per param: {"name":...,["unit":...,]"value":
	jsonDeltas []byte   // ],"delta_pct":[
	jsonFront  []byte   // ],"front_perf":[
	jsonParams []byte   // ],"params":[
	jsonYield  []byte   // ],"predicted_yield":
	jsonCurve  []byte   // ,"curve_param":
	jsonTail   []byte   // }\n
}

// CompileModel prepares a model for serving under the given (tenant,
// name): it pre-renders the response fragments that name the model and
// its parameters. A model with no parameter tables has no design to
// give, and is refused; core.BuildModel never builds one.
func CompileModel(tenant, name string, m *core.Model) (*CompiledModel, error) {
	if len(m.ParamTables) == 0 {
		return nil, fmt.Errorf("server: model has no parameter tables")
	}
	cm := &CompiledModel{model: m, tenant: tenant, name: name}
	if err := cm.prepareJSON(tenant, name, m.ParamNames, m.ParamUnits); err != nil {
		return nil, err
	}
	return cm, nil
}

// queryScratch is the per-query reusable state: core's design scratch
// (segment hints warmed across queries, the parameter buffer), the
// design it fills and the JSON render buffer. Pooled so the
// steady-state query path performs zero allocations.
type queryScratch struct {
	design core.Design
	ds     core.DesignScratch
	buf    []byte
}

var scratchPool = sync.Pool{New: func() any { return new(queryScratch) }}

func getScratch() *queryScratch   { return scratchPool.Get().(*queryScratch) }
func putScratch(sc *queryScratch) { scratchPool.Put(sc) }

// solve answers one query. The design lives in sc and is only valid
// until sc is reused. A query with no design fails with core's error
// (or the request's spec-parsing error).
func (cm *CompiledModel) solve(req api.QueryRequest, sc *queryScratch) (*core.Design, error) {
	spec0, err := req.Specs[0].ToYield()
	if err != nil {
		return nil, err
	}
	spec1, err := req.Specs[1].ToYield()
	if err != nil {
		return nil, err
	}
	scale := req.GuardScale
	if scale == 0 {
		scale = 1
	}
	if err := cm.model.DesignInto(&sc.design, spec0, spec1, scale, &sc.ds); err != nil {
		return nil, err
	}
	return &sc.design, nil
}

// response materialises a design as the wire struct (the programmatic
// Query path; the HTTP path renders JSON directly from the design
// without building this).
func (cm *CompiledModel) response(d *core.Design) *api.QueryResponse {
	resp := &api.QueryResponse{
		Model:          cm.name,
		Tenant:         wireTenant(cm.tenant),
		Targets:        d.Target,
		DeltaPct:       d.DeltaPct,
		FrontPerf:      d.FrontPerf,
		CurveParam:     d.CurveParam,
		PredictedYield: d.PredictedYield,
		Params:         make([]api.Param, len(d.Params)),
	}
	m := cm.model
	for i, v := range d.Params {
		p := api.Param{Name: m.ParamNames[i], Value: v}
		if i < len(m.ParamUnits) {
			p.Unit = m.ParamUnits[i]
		}
		resp.Params[i] = p
	}
	return resp
}
