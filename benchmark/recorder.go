package main

import (
	"math"
	"slices"
)

// recorder keeps every latency sample as raw nanoseconds and sorts once
// when asked, so a reported percentile is an observed value, never an
// interpolation between histogram bucket edges. It is not safe for
// concurrent use; each measuring goroutine owns one and they are merged
// at the end.
type recorder struct {
	ns     []int64
	sorted bool
}

func (r *recorder) add(ns int64) {
	r.ns = append(r.ns, ns)
	r.sorted = false
}

func (r *recorder) merge(o *recorder) {
	r.ns = append(r.ns, o.ns...)
	r.sorted = false
}

func (r *recorder) count() int { return len(r.ns) }

func (r *recorder) sort() {
	if !r.sorted {
		slices.Sort(r.ns)
		r.sorted = true
	}
}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: with fewer, the value is set by a handful of outliers
// and does not repeat from run to run.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q < 1) in
// nanoseconds. ok is false when fewer than minBeyond samples lie beyond
// it; the median only needs one sample.
func (r *recorder) quantile(q float64) (ns int64, ok bool) {
	n := len(r.ns)
	if n == 0 {
		return 0, false
	}
	r.sort()
	rank := int(math.Ceil(q*float64(n)-1e-9)) - 1 // the slack absorbs q*n landing a hair above an integer
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	if q > 0.5 && n-1-rank < minBeyond {
		return r.ns[rank], false
	}
	return r.ns[rank], true
}

// ms returns the q-quantile in milliseconds. Runs of the declared
// length support every percentile the benchmark reports; a shorter run
// still gets the nearest-rank value, and supports says it is thin.
func (r *recorder) ms(q float64) float64 {
	ns, _ := r.quantile(q)
	return float64(ns) / 1e6
}

// supports reports whether at least minBeyond samples lie beyond q.
func (r *recorder) supports(q float64) bool {
	_, ok := r.quantile(q)
	return ok
}

func (r *recorder) sum() int64 {
	var s int64
	for _, v := range r.ns {
		s += v
	}
	return s
}

func (r *recorder) meanNs() float64 {
	if len(r.ns) == 0 {
		return 0
	}
	return float64(r.sum()) / float64(len(r.ns))
}
