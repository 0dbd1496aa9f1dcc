package table

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestFileRoundTrip(t *testing.T) {
	f := NewFile("gain", "delta")
	if err := f.AddRow(49.78, 0.52); err != nil {
		t.Fatal(err)
	}
	if err := f.AddRow(50.17, 0.51); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Columns) != 2 || got.Columns[0] != "gain" {
		t.Errorf("columns = %v", got.Columns)
	}
	if len(got.Rows) != 2 || got.Rows[1][1] != 0.51 {
		t.Errorf("rows = %v", got.Rows)
	}
}

func TestFileAddRowWidthMismatch(t *testing.T) {
	f := NewFile("a", "b")
	if err := f.AddRow(1); err == nil {
		t.Fatal("short row accepted")
	}
	f2 := &File{}
	if err := f2.AddRow(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := f2.AddRow(1, 2, 3); err == nil {
		t.Fatal("inconsistent row accepted")
	}
}

func TestReadSkipsCommentsAndBlank(t *testing.T) {
	in := "# a comment\n\n1 2\n# another\n3 4\n"
	f, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(f.Rows))
	}
}

func TestReadBadNumber(t *testing.T) {
	if _, err := Read(strings.NewReader("1 x\n")); err == nil {
		t.Fatal("bad number accepted")
	}
}

func TestReadRaggedRows(t *testing.T) {
	if _, err := Read(strings.NewReader("1 2\n3\n")); err == nil {
		t.Fatal("ragged rows accepted")
	}
}

func TestReadHeaderWidthMismatch(t *testing.T) {
	if _, err := Read(strings.NewReader("# columns: a b c\n1 2\n")); err == nil {
		t.Fatal("header/row width mismatch accepted")
	}
}

// TestReadRefusesLinesTooWideToWriteBack: Read accepts only what
// Write can render back under Read's line limit. 200,000 values of
// "1e9" read in 800 KB, but %.10g writes each as "1000000000", 2.2 MB
// in all; the widest rendering fits at maxRowValues values and not
// one more; and a '# columns:' header that Write would widen past the
// limit is refused too.
func TestReadRefusesLinesTooWideToWriteBack(t *testing.T) {
	if _, err := Read(strings.NewReader(strings.Repeat("1e9 ", 200000) + "\n")); !errors.Is(err, ErrTooWide) {
		t.Errorf("200,000-value row: err %v, want ErrTooWide", err)
	}

	widest := strings.TrimSpace(strings.Repeat("-1.234567891e-300 ", maxRowValues))
	f, err := Read(strings.NewReader(widest + "\n"))
	if err != nil {
		t.Fatalf("%d widest values refused: %v", maxRowValues, err)
	}
	var buf bytes.Buffer
	if err := f.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Read(&buf); err != nil {
		t.Fatalf("written row of %d widest values refused: %v", maxRowValues, err)
	}
	if _, err := Read(strings.NewReader(widest + " 1\n")); !errors.Is(err, ErrTooWide) {
		t.Errorf("%d values: err %v, want ErrTooWide", maxRowValues+1, err)
	}

	// "#columns:" + name fits with its newline; "# columns: " + name
	// plus the newline is one byte past the limit.
	name := strings.Repeat("c", maxLine-len("# columns: "))
	if _, err := Read(strings.NewReader("#columns:" + name + "\n")); !errors.Is(err, ErrTooWide) {
		t.Errorf("widening header: err %v, want ErrTooWide", err)
	}
	if _, err := Read(strings.NewReader("#columns:" + name[1:] + "\n")); err != nil {
		t.Errorf("header that writes back within the limit refused: %v", err)
	}
}

func TestColumnByName(t *testing.T) {
	f := NewFile("x", "y")
	_ = f.AddRow(1, 10)
	_ = f.AddRow(2, 20)
	col, err := f.ColumnByName("y")
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 10 || col[1] != 20 {
		t.Errorf("column y = %v", col)
	}
	if _, err := f.ColumnByName("z"); err == nil {
		t.Fatal("missing column accepted")
	}
}

func TestWriteReadFileAndLoad1D(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "gain_delta.tbl")
	f := NewFile("gain", "delta")
	for i := 0; i < 8; i++ {
		_ = f.AddRow(49+float64(i)*0.3, 0.52-float64(i)*0.01)
	}
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := Load1D(path, "3E")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Eval(49.9)
	if err != nil {
		t.Fatal(err)
	}
	// Data is linear in x, so the cubic spline reproduces it closely.
	want := 0.52 - (49.9-49)/0.3*0.01
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("Eval(49.9) = %g, want %g", got, want)
	}
}

func TestLoadCurve2D(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "lp1_data.tbl")
	f := NewFile("gain", "pm", "w1")
	for i := 0; i <= 10; i++ {
		g := 49 + 0.3*float64(i)
		p := 77 - 0.4*float64(i)
		_ = f.AddRow(g, p, 10+float64(i))
	}
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	m, err := LoadCurve2D(path, "3E,3E")
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Eval(49+0.3*5, 77-0.4*5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-15) > 1e-3 {
		t.Errorf("Eval on sample = %g, want 15", got)
	}
}

func TestLoad1DTooFewColumns(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "one.tbl")
	f := &File{}
	_ = f.AddRow(1)
	_ = f.AddRow(2)
	if err := f.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := Load1D(path, "3E"); err == nil {
		t.Fatal("1-column file accepted for 1-D model")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load1D("/nonexistent/x.tbl", "3E"); err == nil {
		t.Fatal("missing file accepted")
	}
	if _, err := LoadCurve2D("/nonexistent/x.tbl", "3E,3E"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWidth(t *testing.T) {
	f := NewFile("a", "b", "c")
	if f.Width() != 3 {
		t.Error("Width from header wrong")
	}
	g := &File{}
	_ = g.AddRow(1, 2)
	if g.Width() != 2 {
		t.Error("Width from rows wrong")
	}
	if (&File{}).Width() != 0 {
		t.Error("empty Width should be 0")
	}
}
