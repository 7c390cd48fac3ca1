package main

import (
	"math/rand"
	"testing"
)

func TestRecorderNearestRankOnKnownDistributions(t *testing.T) {
	// 1..1000 ms in shuffled order: the q-quantile is exactly q*1000 ms.
	var r recorder
	for _, i := range rand.New(rand.NewSource(1)).Perm(1000) {
		r.add(int64(i+1) * 1e6)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 500}, {0.95, 950}, {0.99, 990}, {0.001, 1}} {
		if got := r.ms(c.q); got != c.want {
			t.Errorf("p%g of 1..1000 = %v ms, want %v", 100*c.q, got, c.want)
		}
	}
	if r.count() != 1000 {
		t.Errorf("count = %d, want 1000", r.count())
	}
	if got := r.meanNs(); got != 500.5e6 {
		t.Errorf("mean = %v, want 500.5e6", got)
	}

	// A constant distribution reports the constant at every quantile; a
	// bucketed histogram would interpolate inside the bucket instead.
	var flat recorder
	for i := 0; i < 200; i++ {
		flat.add(23_260_000)
	}
	if p50, p95 := flat.ms(0.5), flat.ms(0.95); p50 != 23.26 || p95 != 23.26 {
		t.Errorf("constant sample: p50 %v, p95 %v, want 23.26 both", p50, p95)
	}

	// Two modes: 90 fast samples and 10 slow ones. p90 is the last fast
	// one, p95 a slow one.
	var bi recorder
	for i := 0; i < 90; i++ {
		bi.add(1e6)
	}
	for i := 0; i < 10; i++ {
		bi.add(100e6)
	}
	if got := bi.ms(0.90); got != 1 {
		t.Errorf("bimodal p90 = %v, want 1", got)
	}
	if got := bi.ms(0.95); got != 100 {
		t.Errorf("bimodal p95 = %v, want 100", got)
	}
}

func TestRecorderTenSamplesBeyondRule(t *testing.T) {
	fill := func(n int) *recorder {
		r := &recorder{}
		for i := 0; i < n; i++ {
			r.add(int64(i))
		}
		return r
	}
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{100, 0.95, false}, // 5 beyond
		{199, 0.95, false}, // 9 beyond
		{220, 0.95, true},  // 11 beyond
		{315, 0.95, true},  // the issue's "300 steps, 15 beyond"
		{1000, 0.99, true}, // exactly 10 beyond
		{999, 0.99, false}, // 9 beyond
		{3, 0.50, true},    // the median needs no tail
	}
	for _, c := range cases {
		if got := fill(c.n).supports(c.q); got != c.want {
			t.Errorf("n=%d supports(p%g) = %v, want %v", c.n, 100*c.q, got, c.want)
		}
	}
	if (&recorder{}).supports(0.5) {
		t.Error("an empty recorder supports nothing")
	}
}

func TestRecorderMerge(t *testing.T) {
	a, b := &recorder{}, &recorder{}
	for i := 1; i <= 50; i++ {
		a.add(int64(i))
		b.add(int64(50 + i))
	}
	a.ms(0.5) // sorts a; merge must re-sort
	a.merge(b)
	if ns, _ := a.quantile(0.5); ns != 50 {
		t.Errorf("merged median = %d, want 50", ns)
	}
}
