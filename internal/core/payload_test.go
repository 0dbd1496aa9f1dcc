package core_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"analogyield/internal/core"
)

// v1PayloadFile is the front64 golden model as the gob EncodeModel
// wrote it before the fixed layout: the bytes a store that predates the
// layout holds.
const v1PayloadFile = "testdata/front64_v1.gob"

func goldenFrontNamed(t testing.TB, name string) goldenFront {
	t.Helper()
	for _, f := range goldenFronts() {
		if f.name == name {
			return f
		}
	}
	t.Fatalf("no golden front %q", name)
	return goldenFront{}
}

// pinnedEncodeDigests reads the EncodeModel digest TestDesignGolden
// pins for each front.
func pinnedEncodeDigests(t *testing.T) map[string]string {
	digests := map[string]string{}
	for _, line := range readDesignGolden(t) {
		if name, digest, ok := strings.Cut(line, " encode "); ok {
			digests[name] = digest
		}
	}
	return digests
}

// TestEncodeModelIgnoresGobHistory: a process that gob-encoded a flow
// checkpoint before installing a model still writes the pinned payload,
// so every replica gives one model one store version.
func TestEncodeModelIgnoresGobHistory(t *testing.T) {
	if err := core.SaveTestCheckpoint(filepath.Join(t.TempDir(), "flow.ckpt")); err != nil {
		t.Fatal(err)
	}
	pinned := pinnedEncodeDigests(t)
	for _, f := range goldenFronts() {
		data, err := core.EncodeModel(f.model(t))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha(data); got != pinned[f.name] {
			t.Errorf("%s: payload %s after a checkpoint encode, pinned %s", f.name, got, pinned[f.name])
		}
	}
}

// modelDiff describes how two models' payload fields differ, comparing
// floats bit for bit; "" means they are equal.
func modelDiff(a, b *core.Model) string {
	switch {
	case !slices.Equal(a.ObjectiveNames, b.ObjectiveNames):
		return fmt.Sprintf("objectives %q vs %q", a.ObjectiveNames, b.ObjectiveNames)
	case !slices.Equal(a.ParamNames, b.ParamNames):
		return fmt.Sprintf("params %q vs %q", a.ParamNames, b.ParamNames)
	case !slices.Equal(a.ParamUnits, b.ParamUnits):
		return fmt.Sprintf("units %q vs %q", a.ParamUnits, b.ParamUnits)
	case len(a.Points) != len(b.Points):
		return fmt.Sprintf("%d points vs %d", len(a.Points), len(b.Points))
	}
	same := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) })
	}
	for i, p := range a.Points {
		q := b.Points[i]
		if !same(p.Perf[:], q.Perf[:]) || !same(p.DeltaPct[:], q.DeltaPct[:]) || !same(p.Params, q.Params) {
			return fmt.Sprintf("point %d: %+v vs %+v", i, p, q)
		}
	}
	return ""
}

// TestDecodeModelReadsV1: the v1 payload an older store holds and the
// current payload of the same model decode to bit-identical points and
// Table 3 answers.
func TestDecodeModelReadsV1(t *testing.T) {
	v1, err := os.ReadFile(v1PayloadFile)
	if err != nil {
		t.Fatal(err)
	}
	old, err := core.DecodeModel(v1)
	if err != nil {
		t.Fatal(err)
	}
	f := goldenFrontNamed(t, "front64")
	data, err := core.EncodeModel(f.model(t))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(data, v1) {
		t.Fatal("EncodeModel still writes the v1 payload")
	}
	cur, err := core.DecodeModel(data)
	if err != nil {
		t.Fatal(err)
	}
	if d := modelDiff(old, cur); d != "" {
		t.Fatalf("v1 and v2 payloads decode differently: %s", d)
	}
	for i, q := range f.queries(cur) {
		d0, err0 := old.DesignForScaled(q.spec0, q.spec1, q.scale)
		d1, err1 := cur.DesignForScaled(q.spec0, q.spec1, q.scale)
		if a, b := designRecord(d0, err0), designRecord(d1, err1); a != b {
			t.Errorf("q%d: v1 model %s, v2 model %s", i, a, b)
		}
	}
}

// decodeAllocBound is the most DecodeModel may allocate for input b:
// the fixed cost of one table fit plus a share proportional to the
// points and labels the bytes can hold. Gob, which reads v1 payloads,
// sizes a message or a slice from the count it reads before it checks
// the bytes behind it, capping each such allocation at 10 MiB; bytes
// without the v2 magic get that much more.
func decodeAllocBound(b []byte) uint64 {
	bound := 1<<20 + 512*uint64(len(b))
	if !bytes.HasPrefix(b, []byte("\x89AY2")) {
		bound += 10 << 20
	}
	return bound
}

// FuzzDecodeModel holds the payload boundary: any bytes give a model or
// an error wrapping core.ErrModelPayload, never a panic, with allocation
// bounded by the input length; an accepted payload re-encodes to bytes
// that decode to the same model and re-encode identically.
func FuzzDecodeModel(f *testing.F) {
	v1, err := os.ReadFile(v1PayloadFile)
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{v1}
	for _, g := range goldenFronts() {
		data, err := core.EncodeModel(g.model(f))
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, data)
	}
	for _, s := range seeds {
		f.Add(s)
		for _, n := range []int{0, 1, 4, 20, 64, len(s) / 2, len(s) - 8, len(s) - 1} {
			f.Add(s[:n])
		}
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		m, err := core.DecodeModel(b)
		runtime.ReadMemStats(&ms)
		if alloc := ms.TotalAlloc - before; alloc > decodeAllocBound(b) {
			t.Fatalf("decoding %d bytes allocated %d, bound %d", len(b), alloc, decodeAllocBound(b))
		}
		if err != nil {
			if !errors.Is(err, core.ErrModelPayload) {
				t.Fatalf("error does not wrap ErrModelPayload: %v", err)
			}
			return
		}
		data, err := core.EncodeModel(m)
		if err != nil {
			t.Fatalf("accepted payload does not re-encode: %v", err)
		}
		again, err := core.DecodeModel(data)
		if err != nil {
			t.Fatalf("re-encoded payload refused: %v", err)
		}
		if d := modelDiff(m, again); d != "" {
			t.Fatalf("re-encoded payload decodes to another model: %s", d)
		}
		if data2, err := core.EncodeModel(again); err != nil || !bytes.Equal(data, data2) {
			t.Fatalf("second encoding differs (%v)", err)
		}
	})
}

func BenchmarkEncodeModel(b *testing.B) {
	m := goldenFrontNamed(b, "front64").model(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.EncodeModel(m); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeModel(b *testing.B) {
	data, err := core.EncodeModel(goldenFrontNamed(b, "front64").model(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := core.DecodeModel(data); err != nil {
			b.Fatal(err)
		}
	}
}
