package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Errorf("counter = %d, want 42", got)
	}

	var g Gauge
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge = %d, want 7", got)
	}
	g.SetMax(5) // below current: no-op
	if got := g.Value(); got != 7 {
		t.Errorf("SetMax(5) lowered the gauge to %d", got)
	}
	g.SetMax(100)
	if got := g.Value(); got != 100 {
		t.Errorf("SetMax(100) = %d, want 100", got)
	}
}

// TestRegistrySharing pins the aggregation contract the sharded engine
// relies on: the same name resolves to the same instrument, so N tile
// engines incrementing "engine.steps" sum into one counter.
func TestRegistrySharing(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x")
	b := r.Counter("x")
	if a != b {
		t.Fatal("same name resolved to distinct counters")
	}
	a.Inc()
	b.Inc()
	if got := r.Counter("x").Value(); got != 2 {
		t.Errorf("shared counter = %d, want 2", got)
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Error("same name resolved to distinct gauges")
	}
	h := r.Histogram("h", SizeBuckets)
	// Later bounds are ignored for an existing name.
	if r.Histogram("h", DurationBuckets) != h {
		t.Error("same name resolved to distinct histograms")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	r.GaugeFunc("f", func() int64 { return 0 })
	one := func() int64 { return 1 }
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"counter name as gauge", func() { r.Gauge("m") }},
		{"counter name as gauge func", func() { r.GaugeFunc("m", one) }},
		{"gauge func name as gauge", func() { r.Gauge("f") }},
		{"gauge func name as histogram", func() { r.Histogram("f", SizeBuckets) }},
		{"gauge func registered twice", func() { r.GaugeFunc("f", one) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", tc.name)
				}
			}()
			tc.call()
		}()
	}
}

// TestGaugeFunc: a func gauge is recomputed at every Snapshot and
// Flatten and renders as int64, exactly like a stored gauge.
func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	var level atomic.Int64
	r.GaugeFunc("owned.len", level.Load)
	for _, want := range []int64{3, -1} {
		level.Store(want)
		if got, ok := r.Snapshot()["owned.len"].(int64); !ok || got != want {
			t.Errorf("Snapshot[owned.len] = %v, want int64 %d", r.Snapshot()["owned.len"], want)
		}
		if got := r.Flatten()["owned.len"]; got != float64(want) {
			t.Errorf("Flatten[owned.len] = %v, want %d", got, want)
		}
	}
}

// TestGaugeFuncRunsOutsideRegistryLock: an owner may hold its own lock
// while resolving an instrument, and a func gauge may take that same
// lock. Snapshot must therefore call funcs after releasing the registry
// lock, or the two goroutines deadlock.
func TestGaugeFuncRunsOutsideRegistryLock(t *testing.T) {
	r := NewRegistry()
	var owner sync.Mutex
	inFunc := make(chan struct{})
	r.GaugeFunc("owned", func() int64 {
		close(inFunc)
		owner.Lock()
		defer owner.Unlock()
		return 1
	})
	owner.Lock()
	snap := make(chan map[string]any, 1)
	go func() { snap <- r.Snapshot() }()
	<-inFunc
	resolved := make(chan struct{})
	go func() {
		r.Counter("resolved.under.owner.lock")
		owner.Unlock()
		close(resolved)
	}()
	select {
	case <-resolved:
	case <-time.After(5 * time.Second):
		t.Fatal("Registry.Counter blocked while a gauge func waited on its caller's lock")
	}
	if got := (<-snap)["owned"]; got != int64(1) {
		t.Errorf("Snapshot[owned] = %v, want 1", got)
	}
}

// TestNilRegistryDetached: a nil *Registry hands out functional
// detached instruments, so instrumented code never branches on
// "metrics configured?".
func TestNilRegistryDetached(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if got := c.Value(); got != 1 {
		t.Errorf("detached counter = %d, want 1", got)
	}
	r.Gauge("g").Set(5)
	r.Histogram("h", SizeBuckets).Observe(3)
	r.GaugeFunc("f", func() int64 { t.Error("nil registry called a gauge func"); return 0 })
	r.GaugeFunc("f", func() int64 { return 0 }) // no second-registration panic either
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot is non-empty")
	}
	if len(r.Flatten()) != 0 {
		t.Error("nil registry Flatten is non-empty")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	h.Observe(5)    // bucket le=10
	h.Observe(10)   // bounds are inclusive: still le=10
	h.Observe(11)   // le=100
	h.Observe(1000) // overflow
	if got := h.Count(); got != 4 {
		t.Errorf("count = %d, want 4", got)
	}
	if got := h.Sum(); got != 1026 {
		t.Errorf("sum = %d, want 1026", got)
	}
	v := h.Value()
	want := []Bucket{{LE: 10, N: 2}, {LE: 100, N: 1}, {LE: -1, N: 1}}
	if len(v.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", v.Buckets, want)
	}
	for i := range want {
		if v.Buckets[i] != want[i] {
			t.Fatalf("bucket %d = %+v, want %+v", i, v.Buckets[i], want[i])
		}
	}
}

func TestHistogramElidesEmptyBuckets(t *testing.T) {
	h := NewHistogram(SizeBuckets)
	h.Observe(2) // only the le=3 bucket fills
	v := h.Value()
	if len(v.Buckets) != 1 || v.Buckets[0].LE != 3 {
		t.Errorf("buckets = %+v, want exactly [{3 1}]", v.Buckets)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]int64{10, 10})
}

func TestTracer(t *testing.T) {
	// Inert forms: nil tracer and nil clock both record nothing.
	var nilTracer *Tracer
	h := NewHistogram(DurationBuckets)
	nilTracer.End(h, nilTracer.Begin())
	NewTracer(nil).End(h, 0)
	if nilTracer.Enabled() || NewTracer(nil).Enabled() {
		t.Error("inert tracer claims Enabled")
	}
	if h.Count() != 0 {
		t.Errorf("inert tracers recorded %d observations", h.Count())
	}

	// Live form against a fake clock: each reading advances 1ms, so a
	// Begin/End pair spans exactly 1ms.
	var now int64
	tr := NewTracer(func() int64 { now += 1_000_000; return now })
	if !tr.Enabled() {
		t.Fatal("tracer with a clock is not Enabled")
	}
	begin := tr.Begin()
	tr.End(h, begin)
	if h.Count() != 1 || h.Sum() != 1_000_000 {
		t.Errorf("span recorded count=%d sum=%d, want 1 and 1000000", h.Count(), h.Sum())
	}
	if d := tr.Since(tr.Begin()); d != 1_000_000 {
		t.Errorf("Since = %d, want 1000000", d)
	}
}

// TestSnapshotJSONDeterministic: two marshals of identical registry
// state are byte-identical (encoding/json sorts map keys), which is
// what makes logged snapshots diffable.
func TestSnapshotJSONDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Counter("b.count").Add(2)
	r.Counter("a.count").Add(1)
	r.Gauge("z.level").Set(-4)
	r.Histogram("m.lat", DurationBuckets).Observe(2_000_000)

	j1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	j2, _ := json.Marshal(r.Snapshot())
	if string(j1) != string(j2) {
		t.Errorf("snapshots differ:\n%s\n%s", j1, j2)
	}
	if !strings.Contains(string(j1), `"a.count":1`) {
		t.Errorf("snapshot missing a.count: %s", j1)
	}
}

func TestFlatten(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Add(3)
	r.Gauge("g").Set(-2)
	r.Histogram("h", SizeBuckets).Observe(7)
	r.Histogram("h", SizeBuckets).Observe(5)
	flat := r.Flatten()
	for k, want := range map[string]float64{"c": 3, "g": -2, "h.count": 2, "h.sum": 12} {
		if flat[k] != want {
			t.Errorf("Flatten[%q] = %v, want %v", k, flat[k], want)
		}
	}
}

func TestHandlerServesSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine.steps").Add(9)
	srv := httptest.NewServer(Handler(r))
	defer srv.Close()

	for _, path := range []string{"/metrics", "/"} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var m map[string]any
		if err := json.NewDecoder(res.Body).Decode(&m); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		res.Body.Close()
		if ct := res.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("GET %s Content-Type = %q", path, ct)
		}
		if m["engine.steps"] != float64(9) {
			t.Errorf("GET %s engine.steps = %v, want 9", path, m["engine.steps"])
		}
	}

	// pprof rides along on the same mux.
	res, err := srv.Client().Get(srv.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Errorf("pprof cmdline status = %d", res.StatusCode)
	}
}

func TestLogLoop(t *testing.T) {
	r := NewRegistry()
	r.Counter("c").Inc()
	var (
		mu    sync.Mutex
		lines []string
	)
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, format)
		_ = args
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		LogLoop(r, time.Millisecond, logf, stop)
		close(done)
	}()
	deadline := time.After(2 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n >= 2 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("LogLoop emitted fewer than 2 snapshots in 2s")
		case <-time.After(time.Millisecond):
		}
	}
	close(stop)
	<-done
}

// TestConcurrentInstruments runs every mutation under the race
// detector: instruments must be safe under concurrent tile workers and
// a scraping HTTP handler.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("c")
			g := r.Gauge("g")
			h := r.Histogram("h", SizeBuckets)
			for j := 0; j < 1000; j++ {
				c.Inc()
				g.SetMax(int64(j))
				h.Observe(int64(j))
				if j%100 == 0 {
					r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Errorf("concurrent counter = %d, want 8000", got)
	}
	if got := r.Gauge("g").Value(); got != 999 {
		t.Errorf("concurrent SetMax = %d, want 999", got)
	}
	if got := r.Histogram("h", SizeBuckets).Count(); got != 8000 {
		t.Errorf("concurrent histogram count = %d, want 8000", got)
	}
}

// TestSharedGaugeFunc: owners sharing a registry may each register a
// process-owned func gauge; the first registration is the one read,
// and a name of another kind still panics.
func TestSharedGaugeFunc(t *testing.T) {
	r := NewRegistry()
	r.SharedGaugeFunc("shared", func() int64 { return 1 })
	r.SharedGaugeFunc("shared", func() int64 { return 2 })
	if got := r.Snapshot()["shared"]; got != int64(1) {
		t.Errorf("Snapshot[shared] = %v, want 1", got)
	}
	r.Counter("c")
	defer func() {
		if recover() == nil {
			t.Error("shared gauge func over a counter name did not panic")
		}
	}()
	r.SharedGaugeFunc("c", func() int64 { return 0 })
}
