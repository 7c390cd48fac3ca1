package main

import (
	"fmt"
	"slices"
	"time"
)

// budget is the latency budget of the serving pipeline: for every probe,
// its delivery latency split into consecutive segments at the layer
// boundaries the wrappers stamp. Each row is one segment's median over
// the probes; worst is the largest relative gap between a probe's
// segment sum and its delivery latency as the subscriber stamped it.
type budget struct {
	segs   []recorder
	total  recorder
	worst  float64
	probes int
}

var budgetSegments = []string{
	"gen.sched_lag", "client.send", "server.ingest_wait", "server.fanout_self(pre)",
	"core.step", "server.fanout_self(post)", "server.post_eval", "wire.write", "client.apply",
}

func (b *budget) print() {
	fmt.Printf("  latency budget over %d probes (median per segment, ms):\n", b.probes)
	var sum float64
	for i, name := range budgetSegments {
		ms := b.segs[i].ms(0.50)
		sum += ms
		fmt.Printf("    %-26s %9.4f\n", name, ms)
	}
	fmt.Printf("    %-26s %9.4f   (delivery p50 %.4f; worst per-probe gap %.4f%%)\n",
		"sum of medians", sum, b.total.ms(0.50), 100*b.worst)
}

// batchTimes are the stamps of one update batch on its way from the
// evaluation that produced it to the subscriber's answers.
type batchTimes struct {
	et                   *evalTimes
	writeBegin, writeEnd time.Time // server side: conn.Write calls carrying the frame
	readDone             time.Time // subscriber side: the Read that completed the frame
	applied              time.Time // OnApplied
}

// batches matches, in order, the evaluations that emitted updates with
// the update-batch frames the subscriber's session wrote, the frames the
// subscriber read, and its OnApplied calls. ok is false when the four
// sequences differ in length, which means a batch was lost or split.
func (h *harness) batches() (byEval map[int64]*batchTimes, ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	var emitted []int64
	for n, et := range h.evals {
		if et.emitted {
			emitted = append(emitted, n)
		}
	}
	slices.Sort(emitted)
	peer := h.lis.peer(h.subConn.LocalAddr())
	if peer == nil {
		return nil, false
	}
	peer.writes.mu.Lock()
	writes := slices.Clone(peer.writes.frames)
	peer.writes.mu.Unlock()
	h.subConn.reads.mu.Lock()
	reads := slices.Clone(h.subConn.reads.frames)
	h.subConn.reads.mu.Unlock()
	if len(writes) != len(emitted) || len(reads) != len(emitted) || len(h.applied) != len(emitted) {
		return nil, false
	}
	byEval = make(map[int64]*batchTimes, len(emitted))
	for k, n := range emitted {
		byEval[n] = &batchTimes{
			et: h.evals[n], writeBegin: writes[k].begin, writeEnd: writes[k].end,
			readDone: reads[k].end, applied: h.applied[k],
		}
	}
	return byEval, true
}

// layerMetrics derives the server, wire, client and core metrics of a
// traced TCP run and, when recs holds probes, their latency budget. It
// also records the per-batch and per-probe spans it pieced together.
func (h *harness) layerMetrics(res *result, recs []probeRec) *budget {
	self := h.tr.selfTimes()
	if ev := h.tr.durations("server.evaluate"); ev.count() > 0 {
		res.set("server.evaluate_ms", ev.ms(0.50), ev.count())
		res.set("server.fanout_self_ms", self["server.evaluate"].ms(0.50), ev.count())
	}
	steps := h.tr.durations("core.step")
	res.set("core.step_p50_ms", steps.ms(0.50), steps.count())
	res.set("core.step_p95_ms", steps.ms(0.95), steps.count())
	if n := h.tp.reports.Load(); n > 0 {
		res.set("core.report_ns", float64(h.tp.reportNs.Load())/float64(n), int(n))
		res.set("core.updates_per_report", float64(h.tp.updates.Load())/float64(n), int(n))
	}
	flat := h.reg.Flatten()
	res.set("server.frames_in", flat["server.frames_in"], 1)
	res.set("server.evaluations", flat["server.evaluations"], 1)
	res.set("server.sheds_drops", flat["server.sheds"]+flat["server.outbox_dropped"], 1)
	var in, out int64
	for _, c := range h.lis.all() {
		c.reads.mu.Lock()
		in += c.reads.bytes
		c.reads.mu.Unlock()
		c.writes.mu.Lock()
		out += c.writes.bytes
		c.writes.mu.Unlock()
	}
	if n := flat["server.frames_in"]; n > 0 {
		res.set("wire.bytes_in_per_report", float64(in)/n, int(n))
	}
	if n := flat["server.updates.streamed"]; n > 0 {
		res.set("wire.bytes_out_per_update", float64(out)/n, int(n))
	}

	byEval, ok := h.batches()
	if !ok {
		res.note("update batches could not be matched across the pipeline; no latency budget")
		return nil
	}
	var postEval, write, apply recorder
	for n, b := range byEval {
		if b.et.span < 0 {
			continue // emitted before recording began
		}
		handoff := minTime(b.et.evalEnd, b.writeBegin)
		postEval.add(b.writeBegin.Sub(handoff).Nanoseconds())
		write.add(b.writeEnd.Sub(b.writeBegin).Nanoseconds())
		apply.add(b.applied.Sub(b.readDone).Nanoseconds())
		h.tr.add("server.post_eval", handoff, b.writeBegin, b.et.span, n)
		h.tr.add("wire.write", b.writeBegin, b.writeEnd, b.et.span, n)
		h.tr.add("client.apply", b.readDone, b.applied, b.et.span, n)
	}
	res.set("server.post_eval_ms", postEval.ms(0.50), postEval.count())
	res.set("wire.write_ms", write.ms(0.50), write.count())
	res.set("client.apply_ms", apply.ms(0.50), apply.count())

	bud := &budget{segs: make([]recorder, len(budgetSegments))}
	var wait recorder
	for _, r := range recs {
		b := byEval[r.eval]
		if r.applied.IsZero() || b == nil || b.et.span < 0 {
			continue
		}
		handoff := minTime(b.et.evalEnd, b.writeBegin)
		edges := []time.Time{
			r.due, r.call, r.sent, b.et.evalBegin, b.et.stepBegin, b.et.stepEnd,
			handoff, b.writeBegin, b.readDone, b.applied,
		}
		var sum int64
		for i := range bud.segs {
			d := edges[i+1].Sub(edges[i]).Nanoseconds()
			bud.segs[i].add(d)
			sum += d
		}
		wait.add(b.et.evalBegin.Sub(r.sent).Nanoseconds())
		latency := r.applied.Sub(r.due).Nanoseconds()
		bud.total.add(latency)
		bud.probes++
		if gap := float64(abs(sum-latency)) / float64(latency); gap > bud.worst {
			bud.worst = gap
		}
		h.tr.add("gen.sched_lag", r.due, r.call, b.et.span, r.eval)
		h.tr.add("client.send", r.call, r.sent, b.et.span, r.eval)
		h.tr.add("server.ingest_wait", r.sent, b.et.evalBegin, b.et.span, r.eval)
	}
	res.set("server.ingest_wait_ms", wait.ms(0.50), wait.count())
	if bud.probes == 0 {
		return nil
	}
	return bud
}

func minTime(a, b time.Time) time.Time {
	if a.Before(b) {
		return a
	}
	return b
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}
