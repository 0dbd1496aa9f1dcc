package table

import (
	"testing"

	"analogyield/internal/spline"
)

func BenchmarkModel1DEval(b *testing.B) {
	xs := make([]float64, 200)
	ys := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i)
		ys[i] = float64(i) * 0.5
	}
	m := MustModel1D(xs, ys, Control{Degree: spline.DegreeMonotoneCubic, Extrap: ExtrapError})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Eval(float64(i%198) + 0.5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCurveProject times the front projection behind every
// $table_model(perf0, perf1, ...) parameter lookup.
func BenchmarkCurveProject(b *testing.B) {
	var x1s, x2s, ys []float64
	for i := 0; i < 150; i++ {
		x1s = append(x1s, float64(i))
		x2s = append(x2s, 150-float64(i))
		ys = append(ys, float64(i)*2)
	}
	c := Control{Degree: spline.DegreeMonotoneCubic, Extrap: ExtrapError}
	m, err := NewCurveModel2D(x1s, x2s, ys, c, c)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Project(float64(i%150), 150-float64(i%150))
	}
}
