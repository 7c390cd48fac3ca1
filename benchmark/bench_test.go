package main

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"cqp/internal/core"
	"cqp/internal/wire"
)

// quickConfig is a 1/20-scale run with the oracle on.
func quickConfig(t *testing.T, workload string, traced bool) runConfig {
	seconds := 1.0
	if testing.Short() {
		seconds = 0.3
	}
	return runConfig{workload: workload, seed: 1, seconds: seconds, traced: traced, quick: true, outDir: t.TempDir()}
}

// TestQuickPass runs all five workloads at 1/20 scale, untraced and
// traced, and requires every oracle check to pass, every end-to-end
// metric to be reported and non-zero, and the traced run to report its
// own layers.
func TestQuickPass(t *testing.T) {
	layers := map[string][]string{
		"engine-paper":   {"core.step_p50_ms", "core.updates_total", "core.update_kb_per_step"},
		"shard-paper":    {"core.step_p50_ms", "shard.step_p50_ms", "shard.route_ns", "shard.overhead_ratio", "core.updates_total"},
		"serve-bulk":     {"core.step_p50_ms", "server.evaluate_ms", "server.ingest_wait_ms", "wire.bytes_out_per_update", "client.apply_ms", "client.send_ns"},
		"ingest-flood":   {"gen.ceiling_kreports_per_s", "server.frames_in", "wire.bytes_in_per_report"},
		"ingest-durable": {"repository.append_ns", "repository.bytes_per_report", "server.frames_in"},
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.Name + "/untraced"
			if traced {
				name = w.Name + "/traced"
			}
			t.Run(name, func(t *testing.T) {
				cfg := quickConfig(t, w.Name, traced)
				res, err := runOne(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct %v, attempted %d, failed %d, notes %v", res.Correct, res.Attempted, res.Failed, res.Notes)
				}
				for _, d := range endToEnd {
					if m, ok := res.Metrics[d.Name]; !ok || !(m.Value > 0) || m.Unit != d.Unit || m.Samples < 1 {
						t.Errorf("end-to-end metric %s = %+v (present %v)", d.Name, m, ok)
					}
				}
				var line struct {
					Correct   bool
					Attempted int
					Failed    int
					Metrics   map[string]struct {
						Value float64
						Unit  string
					}
				}
				if err := json.Unmarshal([]byte(lastLine(res)), &line); err != nil {
					t.Fatal(err)
				}
				want := endToEnd
				if traced {
					want = perLayer
				}
				if len(line.Metrics) != len(want) {
					t.Errorf("last line carries %d metrics, want %d", len(line.Metrics), len(want))
				}
				if !traced {
					return
				}
				for _, name := range layers[w.Name] {
					if !(res.Metrics[name].Value > 0) {
						t.Errorf("traced run reports %s = %v", name, res.Metrics[name].Value)
					}
				}
				if _, err := os.Stat(cfg.outDir + "/" + w.Name + ".trace.json"); err != nil {
					t.Errorf("no trace file: %v", err)
				}
			})
		}
	}
}

// TestExactCountsRepeat checks that the counts the comparison treats as
// exact are the same on every run of a seed, for the plain engine and
// through the shard router.
func TestExactCountsRepeat(t *testing.T) {
	var first *result
	for _, w := range []string{"engine-paper", "engine-paper", "shard-paper"} {
		res, err := runOne(quickConfig(t, w, false))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		for name := range exactCounts {
			if got, want := res.Metrics[name].Value, first.Metrics[name].Value; got != want || got == 0 {
				t.Errorf("%s: %s = %v, first run had %v", w, name, got, want)
			}
		}
	}
}

// slowProcessor delays every bulk evaluation by a fixed time.
type slowProcessor struct {
	core.Processor
	delay time.Duration
}

func (p slowProcessor) StepAppend(dst []core.Update, now float64) []core.Update {
	time.Sleep(p.delay)
	return p.Processor.StepAppend(dst, now)
}

// TestInjectedDelayIsMeasuredAndAttributed is the measurement's
// self-test: 20 ms added to every StepAppend must show up as 20 ms of
// delivery latency, and the traced run must charge it to core.step and
// to no other layer.
func TestInjectedDelayIsMeasuredAndAttributed(t *testing.T) {
	if testing.Short() {
		t.Skip("four serve-bulk runs")
	}
	const delay = 20 * time.Millisecond
	const tolerance = 5.0 // ms
	run := func(traced, slow bool) *result {
		cfg := quickConfig(t, "serve-bulk", traced)
		cfg.seconds = 2
		if slow {
			cfg.wrap = func(p core.Processor) core.Processor { return slowProcessor{p, delay} }
		}
		res, err := runOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("traced %v slow %v: failed %d, notes %v", traced, slow, res.Failed, res.Notes)
		}
		return res
	}
	delta := func(a, b *result, name string) float64 { return b.Metrics[name].Value - a.Metrics[name].Value }

	plain, slowed := run(false, false), run(false, true)
	if d := delta(plain, slowed, "latency_p50_ms"); math.Abs(d-20) > tolerance {
		t.Errorf("untraced latency_p50_ms moved by %.2f ms, want 20 ± %v", d, tolerance)
	}
	tplain, tslowed := run(true, false), run(true, true)
	if d := delta(tplain, tslowed, "core.step_p50_ms"); math.Abs(d-20) > tolerance {
		t.Errorf("core.step_p50_ms moved by %.2f ms, want 20 ± %v", d, tolerance)
	}
	for _, name := range []string{"server.fanout_self_ms", "server.post_eval_ms", "wire.write_ms", "client.apply_ms", "server.ingest_wait_ms"} {
		if d := delta(tplain, tslowed, name); math.Abs(d) > tolerance {
			t.Errorf("%s moved by %.2f ms, want it unmoved", name, d)
		}
	}
}

// muteProcessor suppresses every update of one probe object.
type muteProcessor struct {
	core.Processor
	object core.ObjectID
}

func (p muteProcessor) StepAppend(dst []core.Update, now float64) []core.Update {
	base := len(dst)
	dst = p.Processor.StepAppend(dst, now)
	kept := dst[:base]
	for _, u := range dst[base:] {
		if u.Object != p.object {
			kept = append(kept, u)
		}
	}
	return kept
}

// TestSuppressedProbeCountsAsFailed: an update that never reaches the
// subscriber must be counted, both as an unanswered probe and as an
// answer that differs from the oracle's.
func TestSuppressedProbeCountsAsFailed(t *testing.T) {
	cfg := quickConfig(t, "serve-bulk", false)
	cfg.wrap = func(p core.Processor) core.Processor { return muteProcessor{p, probeObjectBase + 3} }
	res, err := runOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed == 0 {
		t.Errorf("failed = 0 with probe object 3 muted (attempted %d)", res.Attempted)
	}
}

// TestCatalogMatchesSpec keeps BENCHMARK.json, the catalog and the
// driver's contract in step.
func TestCatalogMatchesSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var spec struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !nameRE.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		checkName(w.Name)
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the catalog", i, w.Name, workloads[i].Name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, declared []metric, catalog []metricDef, bounded bool) {
		if len(declared) != len(catalog) {
			t.Fatalf("%d %s metrics declared, %d in the catalog", len(declared), kind, len(catalog))
		}
		for i, m := range declared {
			checkName(m.Name)
			if d := catalog[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s metric %d: declared %+v, catalog %+v", kind, i, m, d)
			}
			if !unitRE.MatchString(m.Unit) {
				t.Errorf("unit %q of %s is malformed", m.Unit, m.Name)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("bound of %s: %v", m.Name, m.Bound)
			}
		}
	}
	compare("end-to-end", spec.EndToEnd, endToEnd, true)
	compare("per-layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", spec.Paths)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(v, n=4), default (exclusive) method.
	cases := []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{2, 1}, [3]float64{0.75, 1.5, 2.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		name         string
		a, b         []float64
		higherBetter bool
		bound        float64
		want         string
	}{
		{"same", steady, []float64{101, 100, 100, 99, 101}, false, 0.10, "unchanged"},
		{"slower latency", steady, []float64{115, 116, 114, 115, 117}, false, 0.10, "regressed"},
		{"lower throughput", steady, []float64{85, 86, 84, 85, 87}, true, 0.10, "regressed"},
		{"faster latency, ten pairs", append(steady, steady...), []float64{90, 91, 89, 90, 92, 90, 91, 89, 90, 92}, false, 0.10, "improved"},
		{"faster latency, five pairs", steady, []float64{90, 91, 89, 90, 92}, false, 0.10, "unchanged"},
		{"within spread", steady, []float64{99, 100, 98, 100, 101}, false, 0.10, "unchanged"},
		{"noisy", []float64{100, 140, 80, 120, 60}, []float64{100, 130, 85, 118, 66}, false, 0.10, "unresolved"},
		{"wins too few", steady, []float64{97, 104, 96, 103, 97}, false, 0.10, "unchanged"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.higherBetter, c.bound); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCoveredAndSelfTime(t *testing.T) {
	// Two overlapping children and one disjoint, all inside [0, 100].
	iv := [][2]int64{{10, 30}, {20, 50}, {70, 80}}
	if got := covered(iv, 0, 100); got != 50 {
		t.Errorf("covered = %d, want 50", got)
	}
	// Children sticking out of the parent are clipped.
	if got := covered([][2]int64{{-10, 5}, {95, 120}}, 0, 100); got != 10 {
		t.Errorf("clipped covered = %d, want 10", got)
	}
	tr := newTracer()
	tr.on.Store(true)
	base := tr.epoch
	parent := tr.add("server.evaluate", base, base.Add(100), -1, 7)
	tr.add("core.step", base.Add(10), base.Add(70), parent, 7)
	self := tr.selfTimes()
	if got, _ := self["server.evaluate"].quantile(0.5); got != 40 {
		t.Errorf("self time of the parent = %d ns, want 40", got)
	}
	if got, _ := self["core.step"].quantile(0.5); got != 60 {
		t.Errorf("self time of the child = %d ns, want 60", got)
	}
}

func TestFrameScannerFindsFramesAcrossArbitrarySplits(t *testing.T) {
	frame := func(typ wire.MsgType, payload int) []byte {
		b := make([]byte, 5+payload)
		binary.LittleEndian.PutUint32(b, uint32(payload))
		b[4] = byte(typ)
		return b
	}
	var stream []byte
	sizes := []int{0, 17, 4096, 3, 100000}
	for i, n := range sizes {
		typ := wire.MsgUpdateBatch
		if i%2 == 1 {
			typ = wire.MsgHeartbeat
		}
		stream = append(stream, frame(typ, n)...)
	}
	for _, chunk := range []int{1, 2, 5, 7, 4096, len(stream)} {
		var got []frameEvent
		s := frameScanner{onFrame: func(ev frameEvent) { got = append(got, ev) }}
		t0 := time.Unix(0, 0)
		for off, call := 0, 0; off < len(stream); off, call = off+chunk, call+1 {
			end := min(off+chunk, len(stream))
			s.feed(stream[off:end], t0.Add(time.Duration(2*call)), t0.Add(time.Duration(2*call+1)))
		}
		if len(got) != len(sizes) {
			t.Fatalf("chunk %d: %d frames found, want %d", chunk, len(got), len(sizes))
		}
		for i, ev := range got {
			if ev.size != 5+sizes[i] || ev.end.Before(ev.begin) {
				t.Errorf("chunk %d frame %d: %+v", chunk, i, ev)
			}
		}
		if chunk == len(stream) {
			continue
		}
		// The big last frame spans many calls: it begins in an earlier
		// call than it ends in.
		if last := got[len(got)-1]; !last.begin.Before(last.end.Add(-1)) {
			t.Errorf("chunk %d: last frame begin %v end %v", chunk, last.begin, last.end)
		}
	}
}
