package filter

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"analogyield/internal/montecarlo"
	"analogyield/internal/ota"
	"analogyield/internal/process"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/filter_golden.txt from the current code")

const goldenFile = "testdata/filter_golden.txt"

// goldenRecorder collects "name value" lines; floats are written as
// their Float64bits (with %g alongside for a human reader).
type goldenRecorder struct{ lines []string }

func (g *goldenRecorder) float(name string, v float64) {
	g.lines = append(g.lines, fmt.Sprintf("%s %016x %g", name, math.Float64bits(v), v))
}

func (g *goldenRecorder) int(name string, v int) {
	g.lines = append(g.lines, fmt.Sprintf("%s %d", name, v))
}

func (g *goldenRecorder) str(name, v string) {
	g.lines = append(g.lines, fmt.Sprintf("%s %s", name, v))
}

// responseDigest hashes every frequency and transfer-function value of a
// measured response.
func responseDigest(r Response) string {
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i, f := range r.Freqs {
		put(f)
		put(real(r.TF[i]))
		put(imag(r.TF[i]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestFilterGolden pins the filter's outputs to the Float64bits recorded
// in testdata: the §5 capacitor MOO at the paper's 30 × 40 budget for
// two seeds (caps, evaluation count, front size, every Response figure
// and a digest of the full measured response), and the transistor-level
// yield check of the first design under each Monte Carlo strategy
// (yield, ESS, simulations run, failures and every Stats field). Never
// regenerate it (-update) for a change that is meant to keep the
// numerics.
func TestFilterGolden(t *testing.T) {
	gm, ro := benchGmRo(t)
	var g goldenRecorder
	var verifyCaps Caps
	for _, seed := range []int64{1, 2} {
		prob := &Problem{Spec: DefaultSpec(), Space: DefaultCapSpace(), GM: gm, Ro: ro}
		res, err := Optimize(context.Background(), prob, OptimizeOptions{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if seed == 1 {
			verifyCaps = res.Caps
		}
		p := fmt.Sprintf("optimize/seed%d ", seed)
		g.float(p+"C1", res.Caps.C1)
		g.float(p+"C2", res.Caps.C2)
		g.float(p+"C3", res.Caps.C3)
		g.int(p+"Evaluations", res.Evaluations)
		g.int(p+"FrontSize", res.FrontSize)
		g.float(p+"DCGainDB", res.Response.DCGainDB)
		g.float(p+"F3dB", res.Response.F3dB)
		g.float(p+"PassbandDevDB", res.Response.PassbandDevDB)
		g.float(p+"StopbandAttenDB", res.Response.StopbandAttenDB)
		g.int(p+"points", len(res.Response.Freqs))
		g.str(p+"response", responseDigest(res.Response))
	}
	for _, strategy := range []montecarlo.Strategy{
		montecarlo.StrategyNaive, montecarlo.StrategyIS, montecarlo.StrategyISSurrogate,
	} {
		yr, err := VerifyYieldMC(context.Background(), verifyCaps, ota.DefaultConfig(), ota.NominalParams(),
			DefaultSpec(), process.C35(), 120, 17, strategy)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		p := "verify/" + strategy.String() + " "
		g.float(p+"Yield", yr.Yield)
		g.float(p+"ESS", yr.ESS)
		g.int(p+"Samples", yr.Samples)
		g.int(p+"FullEvals", yr.FullEvals)
		g.int(p+"Failed", yr.Failed)
		for _, s := range yr.Stats {
			q := p + s.Name + "."
			g.float(q+"Mean", s.Mean)
			g.float(q+"Sigma", s.Sigma)
			g.float(q+"Min", s.Min)
			g.float(q+"Max", s.Max)
			g.float(q+"DeltaPct", s.DeltaPct)
		}
	}

	path := filepath.FromSlash(goldenFile)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(g.lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(g.lines) {
		t.Fatalf("%s has %d lines, the test records %d", goldenFile, len(want), len(g.lines))
	}
	for i, got := range g.lines {
		if got != want[i] {
			t.Errorf("golden mismatch:\n got  %s\n want %s", got, want[i])
		}
	}
}
