package core

import (
	"fmt"
	"os"
	"path/filepath"

	"analogyield/internal/table"
)

// Table file names used by Save/Load. The per-quantity files mirror the
// paper's artefacts (gain_delta.tbl, pm_delta.tbl, lpN_data.tbl); the
// combined front.tbl carries everything needed to rebuild the model.
// The Verilog-A module behave.GenerateVerilogA emits reads the
// per-quantity files by these names.
const (
	frontFile = "front.tbl"
)

// DeltaFileName returns the paper-style variation file name for an
// objective ("gain_delta.tbl" for an objective named "gain_db").
func DeltaFileName(objName string) string {
	return TrimUnitSuffix(objName) + "_delta.tbl"
}

// ParamFileName returns the paper-style table name of parameter i
// (lp1_data.tbl for i = 0, as in the paper).
func ParamFileName(i int) string { return fmt.Sprintf("lp%d_data.tbl", i+1) }

// TrimUnitSuffix strips a unit suffix ("_db", "_deg", "_hz") from an
// objective name: "gain_db" → "gain".
func TrimUnitSuffix(s string) string {
	for _, suf := range []string{"_db", "_deg", "_hz"} {
		if len(s) > len(suf) && s[len(s)-len(suf):] == suf {
			return s[:len(s)-len(suf)]
		}
	}
	return s
}

// Save writes the model's data files into dir (created if needed):
// front.tbl plus the paper-style per-quantity tables.
func (m *Model) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	// Combined front file.
	cols := []string{m.ObjectiveNames[0], m.ObjectiveNames[1],
		"delta_" + m.ObjectiveNames[0] + "_pct", "delta_" + m.ObjectiveNames[1] + "_pct"}
	for i, p := range m.ParamNames {
		cols = append(cols, fmt.Sprintf("%s_%s", p, m.ParamUnits[i]))
	}
	f := table.NewFile(cols...)
	for _, pt := range m.Points {
		row := []float64{pt.Perf[0], pt.Perf[1], pt.DeltaPct[0], pt.DeltaPct[1]}
		row = append(row, pt.Params...)
		if err := f.AddRow(row...); err != nil {
			return err
		}
	}
	if err := f.WriteFile(filepath.Join(dir, frontFile)); err != nil {
		return err
	}

	// Paper-style per-quantity files.
	for k := 0; k < 2; k++ {
		df := table.NewFile(m.ObjectiveNames[k], "delta_pct")
		xs, ys := m.Delta[k].Samples()
		for i := range xs {
			if err := df.AddRow(xs[i], ys[i]); err != nil {
				return err
			}
		}
		if err := df.WriteFile(filepath.Join(dir, DeltaFileName(m.ObjectiveNames[k]))); err != nil {
			return err
		}
	}
	for i := range m.ParamTables {
		pf := table.NewFile(m.ObjectiveNames[0], m.ObjectiveNames[1],
			fmt.Sprintf("%s_%s", m.ParamNames[i], m.ParamUnits[i]))
		x1, x2, ys := m.ParamTables[i].Samples()
		for r := range x1 {
			if err := pf.AddRow(x1[r], x2[r], ys[r]); err != nil {
				return err
			}
		}
		if err := pf.WriteFile(filepath.Join(dir, ParamFileName(i))); err != nil {
			return err
		}
	}
	return nil
}

// LoadModel rebuilds a Model from a directory written by Save. The
// objective/parameter names are recovered from front.tbl's header.
func LoadModel(dir string) (*Model, error) {
	f, err := table.ReadFile(filepath.Join(dir, frontFile))
	if err != nil {
		return nil, fmt.Errorf("core: loading model: %w", err)
	}
	if f.Width() < 5 || len(f.Columns) != f.Width() {
		return nil, fmt.Errorf("core: %s: need named columns (2 objectives, 2 deltas, >=1 parameter)", frontFile)
	}
	objNames := []string{f.Columns[0], f.Columns[1]}
	np := f.Width() - 4
	paramNames := make([]string, np)
	paramUnits := make([]string, np)
	for i := 0; i < np; i++ {
		name := f.Columns[4+i]
		paramNames[i] = name
		paramUnits[i] = ""
		if idx := lastUnderscore(name); idx > 0 {
			paramNames[i] = name[:idx]
			paramUnits[i] = name[idx+1:]
		}
	}
	var pts []ParetoPoint
	for _, row := range f.Rows {
		pt := ParetoPoint{
			Perf:     [2]float64{row[0], row[1]},
			DeltaPct: [2]float64{row[2], row[3]},
			Params:   append([]float64(nil), row[4:]...),
		}
		pts = append(pts, pt)
	}
	// Rebuild with no thinning: the saved points were already thinned.
	return BuildModel(pts, objNames, paramNames, paramUnits,
		ModelOptions{MaxTablePoints: len(pts)})
}

func lastUnderscore(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '_' {
			return i
		}
	}
	return -1
}
