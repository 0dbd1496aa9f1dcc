package main

import (
	"context"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRetiredFlagsExit2: the flags of retired features are refused at
// parse time with exit status 2 and the flag package's message, before
// the server opens a store or a listener.
func TestRetiredFlagsExit2(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH:", err)
	}
	bin := filepath.Join(t.TempDir(), "ayd")
	if out, err := exec.Command(goTool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, flag := range []string{"-data", "-store", "-peers", "-listeners"} {
		// A flag that was still accepted would start a server; the timeout
		// turns that into a failure instead of a hang.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cmd := exec.CommandContext(ctx, bin, "serve", "-addr", "127.0.0.1:0", flag, "x")
		cmd.Dir = t.TempDir()
		out, err := cmd.CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("ayd serve %s x: %v, want exit status 2\n%s", flag, err, out)
			continue
		}
		if want := "flag provided but not defined: " + flag; !strings.Contains(string(out), want) {
			t.Errorf("ayd serve %s x: output lacks %q:\n%s", flag, want, out)
		}
	}
}
