package table

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzRead holds the .tbl reader to its boundary: any bytes give a
// *File or an error, never a panic. An accepted file, written with
// Write and read back, keeps its columns, row count and width (values
// pass through Write's 10 significant digits), and writing that copy
// again gives the same bytes.
func FuzzRead(f *testing.F) {
	for _, seed := range []string{
		"",
		"# columns: gain delta\n49.78 0.52\n50.17 0.51\n",
		"# a comment\n1 2 3\n\n4 5 6\n",
		"  1e-3\t-2.5E+07  \n",
		"NaN +Inf -Inf\n",
		"# columns:\n1\n",
		"# columns: a b\n",
		"# columns: a b\n1 2 3\n",
		"1 2\n3\n",
		"1 x\n",
		"0x1p-3 1_000\n",
		"# columns: a\n# columns: b c\n1 2\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := Read(bytes.NewReader(b))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := file.Write(&first); err != nil {
			t.Fatalf("accepted file does not write: %v", err)
		}
		again, err := Read(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("written file %q refused: %v", first.Bytes(), err)
		}
		if !slices.Equal(again.Columns, file.Columns) {
			t.Fatalf("columns %q read back as %q", file.Columns, again.Columns)
		}
		if len(again.Rows) != len(file.Rows) || again.Width() != file.Width() {
			t.Fatalf("%d rows of width %d read back as %d of width %d",
				len(file.Rows), file.Width(), len(again.Rows), again.Width())
		}
		var second bytes.Buffer
		if err := again.Write(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("second write differs:\n%q\n%q", first.Bytes(), second.Bytes())
		}
	})
}
