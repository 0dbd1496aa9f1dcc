package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

func encodeTestModel(t *testing.T) *Model {
	t.Helper()
	pts := make([]ParetoPoint, 16)
	for i := range pts {
		x := float64(i) / float64(len(pts)-1)
		pts[i] = ParetoPoint{
			Params:   []float64{10 + 50*x, 20 - 3*x, 5 + x*x},
			Perf:     [2]float64{45 + 10*x, 85 - 12*x},
			DeltaPct: [2]float64{1.0 + 0.2*x, 0.5 + 0.1*x},
		}
	}
	m, err := BuildModel(pts,
		[]string{"gain_db", "pm_deg"},
		[]string{"P1", "P2", "P3"},
		[]string{"um", "um", "um"},
		ModelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestEncodeModelRoundTrip(t *testing.T) {
	m := encodeTestModel(t)
	b, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeModel(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ObjectiveNames, m.ObjectiveNames) ||
		!reflect.DeepEqual(got.ParamNames, m.ParamNames) ||
		!reflect.DeepEqual(got.ParamUnits, m.ParamUnits) {
		t.Errorf("labels changed: %+v", got)
	}
	if !reflect.DeepEqual(got.Points, m.Points) {
		t.Errorf("points changed across round trip")
	}
	// The rebuilt tables answer identically (bit-for-bit) — the property
	// the registry's warm-start path depends on.
	lo, hi := m.Domain()
	for i := 0; i <= 20; i++ {
		x := lo + (hi-lo)*float64(i)/20
		want, err1 := m.Delta[0].Eval(x)
		have, err2 := got.Delta[0].Eval(x)
		if (err1 == nil) != (err2 == nil) || math.Float64bits(want) != math.Float64bits(have) {
			t.Fatalf("Delta[0](%g): %g/%v vs %g/%v", x, want, err1, have, err2)
		}
	}
}

// TestEncodeModelDeterministic: equal models must encode to equal
// bytes; the store's content addressing (and hence version identity
// across replicas) depends on it.
func TestEncodeModelDeterministic(t *testing.T) {
	m := encodeTestModel(t)
	a, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("two encodings of one model differ")
	}
	// An independently built equal model encodes identically too.
	c, err := EncodeModel(encodeTestModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, c) {
		t.Fatal("equal models encode differently")
	}
	// A changed model encodes differently.
	m2 := encodeTestModel(t)
	m2.Points[3].Perf[0] += 1e-9
	d, err := EncodeModel(m2)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, d) {
		t.Fatal("distinct models encode identically")
	}
}

// TestDecodeModelRejectsGarbage: bytes that are no payload of either
// layout, or a v2 payload cut short, padded or claiming more than it
// holds, are refused with ErrModelPayload.
func TestDecodeModelRejectsGarbage(t *testing.T) {
	full, err := EncodeModel(encodeTestModel(t))
	if err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	counts := func(nObj, nParam, nUnit, nPoint uint32) []byte {
		b := []byte(modelMagic)
		for _, n := range []uint32{nObj, nParam, nUnit, nPoint} {
			b = le.AppendUint32(b, n)
		}
		return b
	}
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(modelWire{Version: 7}); err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string][]byte{
		"nil":                  nil,
		"empty":                {},
		"neither layout":       []byte("neither a v2 nor a v1 payload"),
		"short":                {0x01, 0x02},
		"magic only":           []byte(modelMagic),
		"truncated":            full[:len(full)/2],
		"one byte short":       full[:len(full)-1],
		"trailing byte":        append(full[:len(full):len(full)], 0),
		"points overrun":       append(counts(2, 3, 3, math.MaxUint32), full[20:]...),
		"labels overrun":       append(counts(math.MaxUint32, 3, 3, 16), full[20:]...),
		"no points":            counts(0, 0, 0, 0),
		"label overruns":       append(counts(1, 0, 0, 0), 0xff, 0xff, 0, 0),
		"unknown v1 version":   v1.Bytes(),
		"too few points":       mustEncode(t, &Model{ObjectiveNames: []string{"a", "b"}, ParamNames: []string{"p"}, Points: []ParetoPoint{{Params: []float64{1}}}}),
		"ragged v1 parameters": raggedV1(t),
		// Gob message lengths of 3 MB and 256 MB in 4 and 5 bytes; gob
		// would size its read buffer from them.
		"v1 message overrun":     []byte("\xfd000"),
		"v1 message overrun cap": {0xfc, 0x10, 0x00, 0x00, 0x00},
		"v1 length cut short":    {0xfc, 0x10},
		"v1 length of 9 bytes":   {0xf7, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	} {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		_, err := DecodeModel(b)
		runtime.ReadMemStats(&ms)
		if !errors.Is(err, ErrModelPayload) {
			t.Errorf("%s: DecodeModel gave %v, want ErrModelPayload", name, err)
		}
		if alloc := ms.TotalAlloc - before; alloc >= 64<<10 {
			t.Errorf("%s: refusing %d bytes allocated %d bytes", name, len(b), alloc)
		}
	}
}

func mustEncode(t *testing.T, m *Model) []byte {
	t.Helper()
	b, err := EncodeModel(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// raggedV1 is a v1 payload whose last point carries fewer parameters
// than the model names, which the fixed layout cannot express.
func raggedV1(t *testing.T) []byte {
	m := encodeTestModel(t)
	pts := append([]ParetoPoint(nil), m.Points...)
	pts[len(pts)-1].Params = pts[len(pts)-1].Params[:1]
	var b bytes.Buffer
	w := modelWire{Version: modelWireVersion, ObjectiveNames: m.ObjectiveNames, ParamNames: m.ParamNames, ParamUnits: m.ParamUnits, Points: pts}
	if err := gob.NewEncoder(&b).Encode(w); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestEncodeModelRefusesRaggedPoints: a point whose parameter count is
// not the model's has no place in the fixed layout.
func TestEncodeModelRefusesRaggedPoints(t *testing.T) {
	m := encodeTestModel(t)
	m.Points[2].Params = append(m.Points[2].Params, 1)
	if _, err := EncodeModel(m); err == nil {
		t.Fatal("EncodeModel accepted a point with an extra parameter")
	}
}
