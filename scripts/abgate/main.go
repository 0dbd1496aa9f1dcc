// Command abgate turns the figures scripts/bench.sh measured, lines of
// "SIDE LAYER OP UNIT VALUE" with each side's pairs in order, into the
// A/B record:
//
//	abgate BASE HEAD BENCHMARK.json HOST < figures > benchmarks/BENCH_ab.json
package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"log"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
)

// row is one (layer, op, unit): each side's [q1, median, q3] and the
// change's wins and losses over the pairs (ties count for neither).
type row struct {
	Layer  string      `json:"layer"`
	Op     string      `json:"op"`
	Unit   string      `json:"unit"`
	Better string      `json:"better,omitempty"` // "" when not gated
	Base   [3]float64  `json:"base"`
	Head   *[3]float64 `json:"head"` // nil when missing from head
	Wins   int         `json:"wins"`
	Losses int         `json:"losses"`
	Fail   bool        `json:"fail,omitempty"`
}

// judge fills r from each side's values, one per pair in order. The row
// fails when head loses more than half the pairs and its median is worse by
// more than both base's IQR and 5%, or when head lacks some of base's pairs.
func judge(r *row, base, head []float64) {
	r.Base = quartiles(base)
	if len(head) != len(base) {
		r.Fail = true
		return
	}
	h := quartiles(head)
	r.Head = &h
	sign := map[string]float64{"lower": 1, "higher": -1}[r.Better]
	for i := range base {
		if d := sign * (head[i] - base[i]); d < 0 {
			r.Wins++
		} else if d > 0 {
			r.Losses++
		}
	}
	worse := sign * (h[1] - r.Base[1])
	r.Fail = 2*r.Losses > len(base) && worse > r.Base[2]-r.Base[0] && worse > 0.05*math.Abs(r.Base[1])
}

// quartiles returns v's q1, median and q3, interpolating between order statistics.
func quartiles(v []float64) (q [3]float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	for k, p := range []float64{0.25, 0.5, 0.75} {
		i, f := math.Modf(p * float64(len(s)-1))
		q[k] = s[int(i)] + f*(s[min(int(i)+1, len(s)-1)]-s[int(i)])
	}
	return q
}

func main() {
	log.SetFlags(0)
	if len(os.Args) != 5 {
		log.Fatal("usage: abgate BASE HEAD BENCHMARK.json HOST < figures")
	}
	// Perfbench metrics are better as BENCHMARK.json says, other units not gated.
	better := map[string]string{"ns/op": "lower", "B/op": "lower", "allocs/op": "lower"}
	var spec struct {
		EndToEnd []struct{ Name, Better string } `json:"end_to_end"`
	}
	b, err := os.ReadFile(os.Args[3])
	if err = cmp.Or(err, json.Unmarshal(b, &spec)); err != nil {
		log.Fatal("abgate: ", err)
	}
	for _, m := range spec.EndToEnd {
		better[m.Name] = m.Better
	}
	type key struct{ layer, op, unit string }
	vals := map[string]map[key][]float64{"base": {}, "head": {}}
	for sc := bufio.NewScanner(os.Stdin); sc.Scan(); {
		var side string
		var k key
		var v float64
		if _, err := fmt.Sscan(sc.Text(), &side, &k.layer, &k.op, &k.unit, &v); err != nil || vals[side] == nil {
			log.Fatalf("abgate: bad figure %q", sc.Text())
		}
		vals[side][k] = append(vals[side][k], v)
	}
	rows, pairs := []*row{}, 0
	for k, base := range vals["base"] {
		r := &row{Layer: k.layer, Op: k.op, Unit: k.unit, Better: cmp.Or(better[k.unit], better[k.op])}
		judge(r, base, vals["head"][k])
		rows, pairs = append(rows, r), max(pairs, len(base))
	}
	slices.SortFunc(rows, func(a, b *row) int {
		return cmp.Or(strings.Compare(a.Layer, b.Layer), strings.Compare(a.Op, b.Op), strings.Compare(a.Unit, b.Unit))
	})
	var lines []string
	failed := 0
	for _, r := range rows {
		line, _ := json.Marshal(r)
		lines = append(lines, string(line))
		if r.Fail {
			failed++
			log.Printf("FAIL %s", line)
		}
	}
	fmt.Printf("{\n  \"host\": %q,\n  \"gomaxprocs\": %d,\n  \"go\": %q,\n  \"base\": %q,\n  \"head\": %q,\n  \"pairs\": %d,\n"+
		"  \"rows\": [\n    %s\n  ]\n}\n", os.Args[4], runtime.GOMAXPROCS(0), runtime.Version(), os.Args[1], os.Args[2],
		pairs, strings.Join(lines, ",\n    "))
	if failed > 0 || pairs == 0 {
		log.Fatalf("abgate: %d of %d rows failed over %d pairs", failed, len(rows), pairs)
	}
	log.Printf("abgate: no row of %d failed over %d pairs", len(rows), pairs)
}
