package table

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// File is the in-memory form of a .tbl data file: named columns and rows
// of numeric data. The on-disk format matches what Verilog-A
// $table_model consumes — whitespace-separated numbers, one sample per
// line — extended with optional '#' comments and an optional
// '# columns:' header naming the columns.
type File struct {
	Columns []string    // optional names, may be empty
	Rows    [][]float64 // each row has the same width
}

// NewFile creates an empty table file with the given column names.
func NewFile(columns ...string) *File {
	return &File{Columns: columns}
}

// AddRow appends a data row. The row width must match earlier rows (and
// the column count, when columns are named).
func (f *File) AddRow(vals ...float64) error {
	if len(f.Columns) > 0 && len(vals) != len(f.Columns) {
		return fmt.Errorf("table: row has %d values, file has %d columns", len(vals), len(f.Columns))
	}
	if len(f.Rows) > 0 && len(vals) != len(f.Rows[0]) {
		return fmt.Errorf("table: row has %d values, earlier rows have %d", len(vals), len(f.Rows[0]))
	}
	f.Rows = append(f.Rows, append([]float64(nil), vals...))
	return nil
}

// Column returns a copy of column i across all rows.
func (f *File) Column(i int) []float64 {
	out := make([]float64, len(f.Rows))
	for r, row := range f.Rows {
		out[r] = row[i]
	}
	return out
}

// ColumnByName returns the column with the given header name.
func (f *File) ColumnByName(name string) ([]float64, error) {
	for i, c := range f.Columns {
		if c == name {
			return f.Column(i), nil
		}
	}
	return nil, fmt.Errorf("table: no column named %q", name)
}

// Width returns the number of columns (from the header if present,
// otherwise from the first row).
func (f *File) Width() int {
	if len(f.Columns) > 0 {
		return len(f.Columns)
	}
	if len(f.Rows) > 0 {
		return len(f.Rows[0])
	}
	return 0
}

// Write serialises the table in .tbl format.
func (f *File) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if len(f.Columns) > 0 {
		if _, err := fmt.Fprintf(bw, "# columns: %s\n", strings.Join(f.Columns, " ")); err != nil {
			return err
		}
	}
	for _, row := range f.Rows {
		for i, v := range row {
			if i > 0 {
				if err := bw.WriteByte(' '); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(bw, "%.10g", v); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteFile writes the table to the named path.
func (f *File) WriteFile(path string) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.Write(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// maxLine is the longest line Read accepts, its newline included.
const maxLine = 1 << 20

// maxRowValues is the most values a row may hold for Write's widest
// rendering of it to fit in maxLine: %.10g renders a float64 in at most
// 17 bytes ("-1.234567891e-308"), plus a separator or the newline.
const maxRowValues = maxLine / 18

// ErrTooWide is wrapped by Read's error for a row of more than
// maxRowValues values, or a '# columns:' header whose written form
// would pass maxLine: Write could render either into a line Read
// refuses.
var ErrTooWide = errors.New("table: line too wide to write back")

// Read parses a .tbl stream. Every file it accepts, Write renders into
// one it accepts again.
func Read(r io.Reader) (*File, error) {
	f := &File{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLine)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			body := strings.TrimSpace(strings.TrimPrefix(line, "#"))
			if rest, ok := strings.CutPrefix(body, "columns:"); ok {
				f.Columns = strings.Fields(rest)
				if n := len("# columns: ") + len(strings.Join(f.Columns, " ")) + 1; n > maxLine {
					return nil, fmt.Errorf("%w: line %d: header writes as %d bytes", ErrTooWide, lineNo, n)
				}
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) > maxRowValues {
			return nil, fmt.Errorf("%w: line %d: %d values, at most %d", ErrTooWide, lineNo, len(fields), maxRowValues)
		}
		row := make([]float64, len(fields))
		for i, fld := range fields {
			v, err := strconv.ParseFloat(fld, 64)
			if err != nil {
				return nil, fmt.Errorf("table: line %d: bad number %q: %v", lineNo, fld, err)
			}
			row[i] = v
		}
		if len(f.Rows) > 0 && len(row) != len(f.Rows[0]) {
			return nil, fmt.Errorf("table: line %d: %d values, earlier rows have %d",
				lineNo, len(row), len(f.Rows[0]))
		}
		f.Rows = append(f.Rows, row)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(f.Columns) > 0 && len(f.Rows) > 0 && len(f.Rows[0]) != len(f.Columns) {
		return nil, fmt.Errorf("table: header names %d columns but rows have %d",
			len(f.Columns), len(f.Rows[0]))
	}
	return f, nil
}

// ReadFile parses the named .tbl file.
func ReadFile(path string) (*File, error) {
	in, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer in.Close()
	return Read(in)
}

// Load1D builds a Model1D from the first two columns of a .tbl file,
// mirroring $table_model(x, "file.tbl", ctrl).
func Load1D(path, controlString string) (*Model1D, error) {
	f, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if f.Width() < 2 {
		return nil, fmt.Errorf("table: %s: need at least 2 columns for a 1-D model", path)
	}
	ctrls, err := ParseControlString(controlString)
	if err != nil {
		return nil, err
	}
	return NewModel1D(f.Column(0), f.Column(1), ctrls[0])
}

// LoadCurve2D builds a CurveModel2D from the first three columns of a
// .tbl file, mirroring $table_model(x1, x2, "file.tbl", "3E,3E") over
// front data.
func LoadCurve2D(path, controlString string) (*CurveModel2D, error) {
	f, err := ReadFile(path)
	if err != nil {
		return nil, err
	}
	if f.Width() < 3 {
		return nil, fmt.Errorf("table: %s: need at least 3 columns for a 2-D model", path)
	}
	ctrls, err := ParseControlString(controlString)
	if err != nil {
		return nil, err
	}
	if len(ctrls) < 2 {
		return nil, fmt.Errorf("table: control string %q has fewer than 2 dimensions", controlString)
	}
	return NewCurveModel2D(f.Column(0), f.Column(1), f.Column(2), ctrls[0], ctrls[1])
}
