package spline

import "testing"

func benchKnots() ([]float64, []float64) {
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i%7) + float64(i)/50
	}
	return xs, ys
}

func BenchmarkCubicFit200(b *testing.B) {
	xs, ys := benchKnots()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := New(DegreeCubic, xs, ys); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCubicEval(b *testing.B) {
	xs, ys := benchKnots()
	s, err := New(DegreeCubic, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Eval(float64(i%199) + 0.5)
	}
}

func BenchmarkPCHIPEval(b *testing.B) {
	xs, ys := benchKnots()
	p, err := New(DegreeMonotoneCubic, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Eval(float64(i%199) + 0.5)
	}
}

// BenchmarkCompiledEvalHint measures the hinted hot path with a warm
// segment hint (locally clustered queries, the server's common case).
func BenchmarkCompiledEvalHint(b *testing.B) {
	xs, ys := benchKnots()
	c, err := New(DegreeCubic, xs, ys)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	hint := -1
	for i := 0; i < b.N; i++ {
		_, hint = c.EvalHint(float64(i%199)+0.5, hint)
	}
}
