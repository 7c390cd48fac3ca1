// Package leakcheck fails a test binary that exits with goroutines
// still running — the cheap, stdlib-only cousin of go.uber.org/goleak.
// A leaked goroutine is invisible to a passing test run: nothing hangs,
// nothing races, the process just carries dead weight until it exits.
// Under a TestMain hook the leak becomes a hard failure with the
// offending stacks attached.
//
// Usage, in a package whose tests start servers or shards:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
//
// The check snapshots the full goroutine dump after m.Run, filters the
// runtime's own machinery and the testing harness, and retries with
// growing sleeps so goroutines that are mid-teardown (a conn reader
// whose Close just returned) get a grace window to drain. Only
// goroutines that survive the whole settle window are reported.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// maxSettle bounds the total grace period granted to goroutines that
// are already tearing down when the check starts.
const maxSettle = 2 * time.Second

// Verify returns an error listing every non-benign goroutine still
// running, after giving in-flight teardowns up to maxSettle to finish.
// It is exported for tests that want a mid-run checkpoint; most callers
// want Main.
func Verify() error {
	var stacks []string
	deadline := time.Now().Add(maxSettle)
	for sleep := time.Millisecond; ; sleep *= 2 {
		stacks = leaked()
		if len(stacks) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			break
		}
		if sleep > 250*time.Millisecond {
			sleep = 250 * time.Millisecond
		}
		time.Sleep(sleep)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "leakcheck: %d goroutine(s) still running at exit:\n", len(stacks))
	for _, s := range stacks {
		b.WriteString("\n")
		b.WriteString(s)
		b.WriteString("\n")
	}
	return fmt.Errorf("%s", b.String())
}

// Main is the one-line TestMain body: run the tests, then the leak
// check, and exit with the test result when tests fail, 1 when the
// tests pass but goroutines leaked.
func Main(m *testing.M) {
	code := m.Run()
	if err := Verify(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// leaked snapshots every goroutine and drops the benign ones.
func leaked() []string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, len(buf)*2)
	}
	var out []string
	for _, rec := range strings.Split(string(buf), "\n\n") {
		rec = strings.TrimSpace(rec)
		if rec == "" || benign(rec) {
			continue
		}
		out = append(out, rec)
	}
	return out
}

// benign reports whether a goroutine record belongs to the machinery
// that is legitimately alive at process exit: the calling goroutine,
// the testing harness, the runtime's own workers, and the signal
// receiver the net/http and os/signal packages install process-wide.
func benign(rec string) bool {
	lines := strings.Split(rec, "\n")
	if len(lines) < 2 {
		return true
	}
	for _, l := range lines {
		switch {
		case strings.Contains(l, "leakcheck.Verify"),
			strings.Contains(l, "leakcheck.leaked"),
			strings.Contains(l, "testing.Main("),
			strings.Contains(l, "testing.tRunner("),
			strings.Contains(l, "testing.(*M).Run("),
			strings.Contains(l, "os/signal.signal_recv"),
			strings.Contains(l, "os/signal.loop"):
			return true
		}
	}
	// The record's top frame is lines[1] ("created by" aside, the header
	// is lines[0]); a runtime-internal top frame (GC workers, finalizer,
	// timer goroutines) is the runtime's business.
	top := strings.TrimSpace(lines[1])
	return strings.HasPrefix(top, "runtime.")
}
