// Package obs is the repository's observability substrate: a
// stdlib-only, deterministic, allocation-free-on-the-hot-path metrics
// and tracing layer shared by the evaluation engines, the spatial
// shard router, and the network server.
//
// Design rules, in the order they matter:
//
//   - Hot paths never allocate and never look metrics up by name.
//     Instruments are pre-resolved once at construction time
//     (Registry.Counter and friends) into plain struct fields; updates
//     are single atomic operations.
//
//   - Deterministic packages stay deterministic. Nothing in core,
//     shard, grid, or geo may read the wall clock (the determinism
//     analyzer enforces it), so span timing is driven by an injected
//     Clock: the server and cmd layers pass WallClock, tests pass fake
//     clocks, and a nil Clock disables timing entirely without
//     branching costs elsewhere. WallClock itself lives here — and the
//     determinism analyzer bans calling it from deterministic packages,
//     closing the loophole the injection exists to prevent.
//
//   - Snapshots are reproducible: Snapshot returns metrics keyed by
//     name, and encoding/json marshals map keys in sorted order, so two
//     snapshots of identical state render byte-identically.
//
// A nil *Registry is valid everywhere and returns detached
// instruments: instrumented code is written unconditionally, and an
// engine constructed without a registry pays only the atomic ops.
package obs

import (
	"maps"
	"sync"
	"sync/atomic"
	"time"
)

// Clock returns a monotonic timestamp in nanoseconds. The zero of the
// scale is arbitrary; only differences are meaningful. Deterministic
// packages receive a Clock by injection and never construct one.
type Clock func() int64

// wallStart anchors WallClock so its readings stay small and
// monotonic (time.Since uses the runtime's monotonic clock).
var wallStart = time.Now()

// WallClock is the process wall clock as a Clock. It belongs to the
// server/cmd layer: deterministic packages must receive it as an
// injected value, never call it directly (the determinism analyzer
// rejects direct calls there).
func WallClock() int64 { return int64(time.Since(wallStart)) }

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an atomic instantaneous value (a level, a high-water mark,
// a last-observed size).
type Gauge struct {
	v atomic.Int64
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark operation.
func (g *Gauge) SetMax(v int64) {
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Registry names and holds instruments and renders deterministic
// snapshots. All methods are safe for concurrent use; a nil *Registry
// hands out detached (unregistered, still functional) instruments.
//
// Requesting an existing name of the same kind returns the shared
// instrument — this is how the sharded engine aggregates across tile
// engines: every tile resolves the same "engine.*" names against the
// same registry and their atomic updates sum naturally. Requesting an
// existing name as a different kind panics: that is a wiring bug, not
// a runtime condition.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	funcs      map[string]func() int64
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		funcs:      make(map[string]func() int64),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on
// first use. A nil registry returns a detached counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.mustBeFree(name, "counter")
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.mustBeFree(name, "gauge")
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers a gauge whose value is f(), computed each time
// Snapshot or Flatten runs. It is the form for a gauge that restates
// state its owner already holds (a map's length, a count over a table):
// the value cannot drift from the state the way a hand-balanced
// Add(±1) pair can. f must be safe to call from any goroutine; it runs
// after r.mu is released, so it may take locks under which its owner
// resolves instruments. Unlike the shared instruments, a name
// registers once: a second GaugeFunc, or a name of another kind,
// panics. A nil registry ignores the call.
func (r *Registry) GaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.mustBeFree(name, "gauge func")
	r.funcs[name] = f
}

// SharedGaugeFunc is GaugeFunc for a value the process owns rather than
// the caller, which every owner sharing the registry registers (each
// tile engine of a sharded router, say): the first registration under
// name wins, and later ones are no-ops. A name of another kind panics.
func (r *Registry) SharedGaugeFunc(name string, f func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.funcs[name]; ok {
		return
	}
	r.mustBeFree(name, "gauge func")
	r.funcs[name] = f
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket bounds on first use (later bounds are ignored
// for an existing name). A nil registry returns a detached histogram.
func (r *Registry) Histogram(name string, bounds []int64) *Histogram {
	if r == nil {
		return NewHistogram(bounds)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	r.mustBeFree(name, "histogram")
	h := NewHistogram(bounds)
	r.histograms[name] = h
	return h
}

// mustBeFree panics if name is already registered as another kind.
// Callers hold r.mu.
func (r *Registry) mustBeFree(name, kind string) {
	if _, ok := r.counters[name]; ok {
		panic("obs: metric " + name + " already registered as a counter, requested as " + kind)
	}
	if _, ok := r.gauges[name]; ok {
		panic("obs: metric " + name + " already registered as a gauge, requested as " + kind)
	}
	if _, ok := r.funcs[name]; ok {
		panic("obs: metric " + name + " already registered as a gauge func, requested as " + kind)
	}
	if _, ok := r.histograms[name]; ok {
		panic("obs: metric " + name + " already registered as a histogram, requested as " + kind)
	}
}

// Snapshot returns the current value of every registered instrument,
// keyed by name: counters as uint64, gauges (func gauges included) as
// int64, histograms as HistogramValue. encoding/json renders map keys
// sorted, so marshaling a snapshot is deterministic.
func (r *Registry) Snapshot() map[string]any {
	out := make(map[string]any)
	if r == nil {
		return out
	}
	r.mu.Lock()
	for name, c := range r.counters {
		out[name] = c.Value()
	}
	for name, g := range r.gauges {
		out[name] = g.Value()
	}
	for name, h := range r.histograms {
		out[name] = h.Value()
	}
	funcs := maps.Clone(r.funcs)
	r.mu.Unlock()
	for name, f := range funcs {
		out[name] = f()
	}
	return out
}

// Flatten returns every metric as one number per name: counters and
// gauges verbatim, histograms expanded to <name>.count and <name>.sum.
// It is the shape the benchmark harness reads its server counters from.
func (r *Registry) Flatten() map[string]float64 {
	out := make(map[string]float64)
	for name, v := range r.Snapshot() {
		switch v := v.(type) {
		case uint64:
			out[name] = float64(v)
		case int64:
			out[name] = float64(v)
		case HistogramValue:
			out[name+".count"] = float64(v.Count)
			out[name+".sum"] = float64(v.Sum)
		}
	}
	return out
}
