// Fixture for the atomicmix analyzer: no obs instrument may be
// resolved inside a loop.
package atomicmix

import "cqp/internal/obs"

// metrics resolves its instruments once, at construction time — the
// internal/obs hot-path contract.
type metrics struct {
	steps *obs.Counter
	depth *obs.Gauge
}

func newMetrics(r *obs.Registry) *metrics {
	return &metrics{
		steps: r.Counter("engine.steps"),
		depth: r.Gauge("engine.depth"),
	}
}

// hotLoop re-resolves on every iteration: flagged. The pre-resolved
// instrument next to it is the sanctioned idiom.
func (m *metrics) hotLoop(r *obs.Registry, n int) {
	for i := 0; i < n; i++ {
		r.Counter("engine.steps").Inc() // want `obs instrument resolved inside a loop`
		m.steps.Inc()
	}
}

// rangeClosure: a closure built inside a range loop still resolves once
// per iteration — depth does not reset at the func literal.
func (m *metrics) rangeClosure(r *obs.Registry, vs []int64) {
	for _, v := range vs {
		f := func() { m.depth.Set(v) }
		f()
		_ = func() { r.Gauge("engine.depth").Set(v) } // want `obs instrument resolved inside a loop`
	}
}

// funcPerItem registers a derived gauge per loop iteration: flagged
// like any other resolution (and a repeated name would panic).
func funcPerItem(r *obs.Registry, names []string) {
	for _, n := range names {
		r.GaugeFunc(n, func() int64 { return 0 }) // want `obs instrument resolved inside a loop`
	}
}
