package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"

	"analogyield/internal/core"
	"analogyield/internal/server/api"
)

// errUnrepresentable reports a response holding a value JSON cannot
// carry (NaN, ±Inf). The HTTP layer answers it 500: the request was
// fine, the server cannot say the answer.
var errUnrepresentable = errors.New("server: response holds a value JSON cannot represent")

// jsonBuf pairs a reusable buffer with an encoder bound to it, so the
// generic response path neither allocates a buffer nor an encoder per
// response.
type jsonBuf struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonBufPool = sync.Pool{New: func() any {
	jb := &jsonBuf{}
	jb.enc = json.NewEncoder(&jb.buf)
	return jb
}}

// writeJSON encodes v into a pooled buffer and writes it with an
// explicit Content-Length, so responses go out in one write without
// chunked transfer encoding. A v that fails to encode is answered 500
// with an api.Error, never with status and an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	jb := jsonBufPool.Get().(*jsonBuf)
	defer jsonBufPool.Put(jb)
	jb.buf.Reset()
	if err := jb.enc.Encode(v); err != nil {
		// A failed Encode writes nothing, so the buffer is still empty.
		status = http.StatusInternalServerError
		jb.enc.Encode(&api.Error{Status: status, Message: "server: encoding response: " + err.Error()})
	}
	writeJSONBytes(w, status, jb.buf.Bytes())
}

// writeJSONBytes writes an already-rendered JSON body.
func writeJSONBytes(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

// appendJSONFloat appends f rendered exactly as encoding/json renders a
// float64 (shortest representation, 'f' form inside [1e-6, 1e21),
// exponent zero-padding stripped), so hand-rendered responses are
// byte-identical to encoder output. ok is false for values JSON cannot
// represent (NaN, ±Inf).
func appendJSONFloat(b []byte, f float64) (out []byte, ok bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9, as encoding/json does
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, true
}

// prepareJSON pre-renders every static fragment of a query response for
// a model served under (tenant, name): the object skeleton, the quoted
// model name (plus the tenant for non-default tenants — the default
// tenant stays off the wire so pre-tenancy responses are byte-identical)
// and each parameter's name/unit header. At query time only the numbers
// are appended between fragments.
func (cm *CompiledModel) prepareJSON(tenant, name string, paramNames, paramUnits []string) error {
	quoted, err := json.Marshal(name)
	if err != nil {
		return err
	}
	cm.jsonHead = append([]byte(`{"model":`), quoted...)
	if wt := wireTenant(tenant); wt != "" {
		qt, err := json.Marshal(wt)
		if err != nil {
			return err
		}
		cm.jsonHead = append(append(cm.jsonHead, `,"tenant":`...), qt...)
	}
	cm.jsonHead = append(cm.jsonHead, `,"targets":[`...)
	cm.jsonDeltas = []byte(`],"delta_pct":[`)
	cm.jsonFront = []byte(`],"front_perf":[`)
	cm.jsonParams = []byte(`],"params":[`)
	cm.jsonYield = []byte(`],"predicted_yield":`)
	cm.jsonCurve = []byte(`,"curve_param":`)
	cm.jsonTail = []byte("}\n")
	cm.paramHeads = make([][]byte, len(paramNames))
	for i, pn := range paramNames {
		qn, err := json.Marshal(pn)
		if err != nil {
			return err
		}
		head := append([]byte(`{"name":`), qn...)
		if i < len(paramUnits) && paramUnits[i] != "" {
			qu, err := json.Marshal(paramUnits[i])
			if err != nil {
				return err
			}
			head = append(append(head, `,"unit":`...), qu...)
		}
		head = append(head, `,"value":`...)
		cm.paramHeads[i] = head
	}
	return nil
}

// appendJSON renders a design into dst, byte-identical to
// writeJSON(w, ..., cm.response(...)) including the encoder's trailing
// newline. ok is false when a value is unrepresentable; the caller then
// falls back to the generic encoder path.
func (cm *CompiledModel) appendJSON(dst []byte, d *core.Design) (out []byte, ok bool) {
	pair := func(b []byte, v0, v1 float64) ([]byte, bool) {
		b, ok := appendJSONFloat(b, v0)
		if !ok {
			return b, false
		}
		b = append(b, ',')
		return appendJSONFloat(b, v1)
	}
	dst = append(dst, cm.jsonHead...)
	if dst, ok = pair(dst, d.Target[0], d.Target[1]); !ok {
		return dst, false
	}
	dst = append(dst, cm.jsonDeltas...)
	if dst, ok = pair(dst, d.DeltaPct[0], d.DeltaPct[1]); !ok {
		return dst, false
	}
	dst = append(dst, cm.jsonFront...)
	if dst, ok = pair(dst, d.FrontPerf[0], d.FrontPerf[1]); !ok {
		return dst, false
	}
	dst = append(dst, cm.jsonParams...)
	for i, v := range d.Params {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, cm.paramHeads[i]...)
		if dst, ok = appendJSONFloat(dst, v); !ok {
			return dst, false
		}
		dst = append(dst, '}')
	}
	dst = append(dst, cm.jsonYield...)
	if dst, ok = appendJSONFloat(dst, d.PredictedYield); !ok {
		return dst, false
	}
	dst = append(dst, cm.jsonCurve...)
	if dst, ok = appendJSONFloat(dst, d.CurveParam); !ok {
		return dst, false
	}
	dst = append(dst, cm.jsonTail...)
	return dst, true
}
