// Canonical model serialization for the artefact store. Where persist.go
// writes the paper's human-readable table files (front.tbl,
// gain_delta.tbl, ...), EncodeModel produces the single deterministic
// byte string the store content-addresses. The bytes depend on the model
// alone, never on what the writing process encoded before, so a model's
// store version is the same fingerprint of its Pareto points and labels
// in every process and on every replica.
//
// The payload holds the model's source data (the thinned Pareto set plus
// names and units), not the fitted tables: DecodeModel rebuilds the
// tables through BuildModel exactly as LoadModel does for the directory
// layout, so both load paths produce identical models. The layout (v2)
// is fixed, little-endian and has no padding:
//
//	magic    4 bytes "\x89AY2"
//	counts   u32 objectives, u32 parameters, u32 units, u32 points
//	labels   every objective name, then every parameter name, then
//	         every unit, each as a u32 byte length and its bytes
//	points   per point Perf[0], Perf[1], DeltaPct[0], DeltaPct[1] and
//	         its parameters, each as the u64 of its IEEE-754 bits
//
// Nothing follows the last point. Stores written before this layout hold
// v1 payloads, a gob stream, which DecodeModel refuses: such a model is
// reinstalled from its tables (README, "Reinstalling a v1 model").
package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// ErrModelPayload reports bytes DecodeModel cannot turn into a model:
// no v2 magic (a v1 payload among them), truncated, followed by stray
// bytes, counts the bytes cannot hold, or points BuildModel refuses.
// Every DecodeModel error wraps it.
var ErrModelPayload = errors.New("core: bad model payload")

// modelMagic opens every v2 payload.
const modelMagic = "\x89AY2"

// pointWords is the number of float64s a v2 point holds besides its
// parameters: Perf and DeltaPct.
const pointWords = 4

// modelWire is the decoded form of a payload.
type modelWire struct {
	ObjectiveNames []string
	ParamNames     []string
	ParamUnits     []string
	Points         []ParetoPoint
}

// EncodeModel serializes m into the canonical v2 payload. Equal models
// always yield equal bytes, which the store relies on for content
// addressing. Every point must carry one value per parameter name.
func EncodeModel(m *Model) ([]byte, error) {
	np := len(m.ParamNames)
	labels := [][]string{m.ObjectiveNames, m.ParamNames, m.ParamUnits}
	size := len(modelMagic) + 16 + len(m.Points)*(pointWords+np)*8
	for _, list := range labels {
		for _, s := range list {
			size += 4 + len(s)
		}
	}
	le := binary.LittleEndian
	b := make([]byte, 0, size)
	b = append(b, modelMagic...)
	for _, n := range []int{len(m.ObjectiveNames), np, len(m.ParamUnits), len(m.Points)} {
		b = le.AppendUint32(b, uint32(n))
	}
	for _, list := range labels {
		for _, s := range list {
			b = le.AppendUint32(b, uint32(len(s)))
			b = append(b, s...)
		}
	}
	for i, p := range m.Points {
		if len(p.Params) != np {
			return nil, fmt.Errorf("core: encoding model: point %d has %d parameters, want %d", i, len(p.Params), np)
		}
		for _, v := range [pointWords]float64{p.Perf[0], p.Perf[1], p.DeltaPct[0], p.DeltaPct[1]} {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
		for _, v := range p.Params {
			b = le.AppendUint64(b, math.Float64bits(v))
		}
	}
	return b, nil
}

// DecodeModel rebuilds a model from an EncodeModel payload. Like
// LoadModel, the saved points were already thinned, so the tables are
// rebuilt with no further thinning.
func DecodeModel(b []byte) (*Model, error) {
	if !bytes.HasPrefix(b, []byte(modelMagic)) {
		return nil, fmt.Errorf("%w: no v2 magic; a v1 (gob) payload is no longer read, so reinstall the model", ErrModelPayload)
	}
	var w modelWire
	if err := w.decode(b[len(modelMagic):]); err != nil {
		return nil, err
	}
	m, err := BuildModel(w.Points, w.ObjectiveNames, w.ParamNames, w.ParamUnits,
		ModelOptions{MaxTablePoints: len(w.Points)})
	if err != nil {
		return nil, fmt.Errorf("%w: rebuilding model: %w", ErrModelPayload, err)
	}
	return m, nil
}

// decode reads a v2 payload after its magic. Counts are checked against
// the bytes left before anything is allocated for them.
func (w *modelWire) decode(b []byte) error {
	le := binary.LittleEndian
	if len(b) < 16 {
		return fmt.Errorf("%w: %d bytes of counts, want 16", ErrModelPayload, len(b))
	}
	nObj, nParam, nUnit, nPoint := le.Uint32(b), le.Uint32(b[4:]), le.Uint32(b[8:]), le.Uint32(b[12:])
	b = b[16:]
	// Each label takes at least its length word, each point a fixed
	// number of words.
	labelBytes := 4 * (uint64(nObj) + uint64(nParam) + uint64(nUnit))
	pointBytes := 8 * (pointWords + uint64(nParam))
	left := uint64(len(b))
	if labelBytes > left || uint64(nPoint) > (left-labelBytes)/pointBytes {
		return fmt.Errorf("%w: %d objectives, %d parameters, %d units and %d points do not fit in %d bytes",
			ErrModelPayload, nObj, nParam, nUnit, nPoint, left)
	}
	labels := func(n uint32) ([]string, error) {
		out := make([]string, n)
		for i := range out {
			if len(b) < 4 {
				return nil, fmt.Errorf("%w: truncated label", ErrModelPayload)
			}
			k := uint64(le.Uint32(b))
			if k > uint64(len(b)-4) {
				return nil, fmt.Errorf("%w: %d-byte label overruns the payload", ErrModelPayload, k)
			}
			out[i] = string(b[4 : 4+k])
			b = b[4+k:]
		}
		return out, nil
	}
	var err error
	if w.ObjectiveNames, err = labels(nObj); err != nil {
		return err
	}
	if w.ParamNames, err = labels(nParam); err != nil {
		return err
	}
	if w.ParamUnits, err = labels(nUnit); err != nil {
		return err
	}
	if want := uint64(nPoint) * pointBytes; uint64(len(b)) != want {
		return fmt.Errorf("%w: %d points need %d bytes after the labels, %d remain", ErrModelPayload, nPoint, want, len(b))
	}
	np := int(nParam)
	w.Points = make([]ParetoPoint, nPoint)
	params := make([]float64, int(nPoint)*np)
	word := func() float64 {
		v := math.Float64frombits(le.Uint64(b))
		b = b[8:]
		return v
	}
	for i := range w.Points {
		p := &w.Points[i]
		p.Perf[0], p.Perf[1], p.DeltaPct[0], p.DeltaPct[1] = word(), word(), word(), word()
		p.Params = params[i*np : (i+1)*np : (i+1)*np]
		for k := range p.Params {
			p.Params[k] = word()
		}
	}
	return nil
}
