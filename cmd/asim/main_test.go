package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildAsim compiles this command into a temporary directory.
func buildAsim(t *testing.T) string {
	t.Helper()
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH:", err)
	}
	bin := filepath.Join(t.TempDir(), "asim")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestBadMOSGeometryExitsNonZero: a netlist with a non-positive MOSFET
// width or length makes asim exit 1 with the parser's line-numbered
// message, not panic in the first Newton stamp; the same netlist with a
// valid width runs.
func TestBadMOSGeometryExitsNonZero(t *testing.T) {
	bin := buildAsim(t)
	dir := t.TempDir()
	run := func(geom string) (int, string) {
		path := filepath.Join(dir, "m.sp")
		src := "* diode-connected NMOS\nM1 d d 0 0 nmos " + geom + "\nI1 0 d DC 10u\n.end\n"
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		cmd := exec.Command(bin, "-op", path)
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		switch {
		case err == nil:
			return 0, stderr.String()
		case errors.As(err, &exit):
			return exit.ExitCode(), stderr.String()
		}
		t.Fatalf("running asim: %v", err)
		return 0, ""
	}
	for _, geom := range []string{"W=-10u L=1u", "W=0 L=1u", "W=10u L=0"} {
		code, stderr := run(geom)
		if code != 1 {
			t.Errorf("%s: exit code %d, want 1; stderr:\n%s", geom, code, stderr)
		}
		if strings.Contains(stderr, "panic") || !strings.Contains(stderr, "line 2") {
			t.Errorf("%s: stderr %q, want the parser's line-2 error and no panic", geom, stderr)
		}
	}
	if code, stderr := run("W=10u L=1u"); code != 0 {
		t.Errorf("valid netlist: exit code %d; stderr:\n%s", code, stderr)
	}
}
