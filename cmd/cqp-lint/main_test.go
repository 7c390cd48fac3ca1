package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestVettoolUnitchecker drives cqp-lint end to end through
// `go vet -vettool=`, the one way the tree is linted: the unitchecker
// protocol (-V=full probe, per-package .cfg, exit 2 on findings) over
// clean module packages, a scratch module carrying a leaky goroutine
// that golifecycle must flag, and the same module under a reasoned and
// a bare //lint:allow.
func TestVettoolUnitchecker(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary and shells out to go vet")
	}
	bin := filepath.Join(t.TempDir(), "cqp-lint")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building cqp-lint: %v\n%s", err, out)
	}
	vet := func(dir string, pkgs ...string) (string, error) {
		cmd := exec.Command("go", append([]string{"vet", "-vettool=" + bin}, pkgs...)...)
		cmd.Dir = dir
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	// leaky writes a scratch module whose goroutine has no join/stop
	// path, annotated by the given comment line.
	leaky := func(t *testing.T, annotation string) string {
		dir := t.TempDir()
		writeFile(t, filepath.Join(dir, "go.mod"), "module leaky\n\ngo 1.21\n")
		writeFile(t, filepath.Join(dir, "leaky.go"), `package leaky

func Leak() {
	`+annotation+`
	go func() {
		for {
		}
	}()
}
`)
		return dir
	}

	t.Run("clean package", func(t *testing.T) {
		if out, err := vet(".", "cqp/internal/geo", "cqp/internal/obs"); err != nil {
			t.Fatalf("go vet on clean packages failed: %v\n%s", err, out)
		}
	})

	t.Run("leaky module", func(t *testing.T) {
		out, err := vet(leaky(t, ""), "./...")
		if err == nil {
			t.Fatalf("go vet accepted a leaky goroutine; output:\n%s", out)
		}
		if !strings.Contains(out, "no join/stop path") {
			t.Fatalf("vet failed but not with the golifecycle finding:\n%s", out)
		}
	})

	t.Run("allow annotations", func(t *testing.T) {
		if out, err := vet(leaky(t, "//lint:allow golifecycle the goroutine lives as long as the process"), "./..."); err != nil {
			t.Fatalf("a reasoned allow did not suppress the finding: %v\n%s", err, out)
		}
		out, err := vet(leaky(t, "//lint:allow golifecycle"), "./...")
		if err == nil {
			t.Fatalf("go vet accepted a bare allow; output:\n%s", out)
		}
		if !strings.Contains(out, "no join/stop path") || !strings.Contains(out, "reason-less //lint:allow") {
			t.Fatalf("vet failed but not with the golifecycle and allowaudit findings:\n%s", out)
		}
	})
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
