package cqp_test

import (
	"testing"
	"time"

	"cqp/internal/obs"
	"cqp/internal/server"
	"cqp/internal/testutil/scenario"
	"cqp/internal/testutil/scenario/overtcp"
)

// noRecover is a source without its recoveries: a recovery diff counts
// in the clients' updates.applied but not in the server's
// updates.streamed, which this test holds equal.
type noRecover struct{ scenario.Source }

func (s noRecover) Next() (scenario.Batch, bool) {
	b, ok := s.Source.Next()
	b.Recover = nil
	return b, ok
}

// TestPipelineTraceThroughServerMatchesDirect is the whole pipeline in
// one test: a seeded scenario played through a live TCP server into
// clients, with one metrics registry watching every tier. Every step,
// every client's answers must equal the scenario driver's reference
// engine, and every commit must be acknowledged; at the end, the
// server's counters must equal the traffic the endpoints observed.
//
// Each query has a session of its own. The one-session case sends
// every object report through one feed session and evaluates only at
// step boundaries. The four-session case is the soak: object reports
// split across four concurrent feed sessions, queries moving, under
// ticker-driven evaluation as well. It must converge with no shed
// session and no full-answer heal.
func TestPipelineTraceThroughServerMatchesDirect(t *testing.T) {
	const steps = 40
	for _, tc := range []struct {
		name     string
		feeds    int
		interval time.Duration
	}{
		{"one-session-manual", 1, 0},
		{"four-sessions-ticker", 4, time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			src := noRecover{scenario.NewGen(7, scenario.Velocity|scenario.Repeats)}
			tg := overtcp.New(t, src, server.Config{Interval: tc.interval, Metrics: reg}, tc.feeds)
			scenario.Run(t, src, scenario.Config{Steps: steps, Targets: []scenario.Target{tg}})
			checkLedger(t, tg, reg)
			if evals := reg.Counter("server.evaluations").Value(); tc.interval > 0 && evals <= steps {
				t.Errorf("server.evaluations = %d over %d steps: the ticker never evaluated", evals, steps)
			}
		})
	}
}

// checkLedger holds the server's counters to the traffic the clients
// saw, once it has quiesced.
func checkLedger(t *testing.T, tg *overtcp.Target, reg *obs.Registry) {
	creg := tg.ClientMetrics()
	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	flat := reg.Flatten()
	if got := flat["server.sessions"]; got != float64(tg.Sessions()) {
		t.Errorf("server.sessions = %v, want %d", got, tg.Sessions())
	}
	if got := counter("server.sessions_total"); got != uint64(tg.Sessions()) {
		t.Errorf("server.sessions_total = %d, want %d", got, tg.Sessions())
	}
	if got := flat["server.subscriptions"]; got != float64(tg.NumQueries()) {
		t.Errorf("server.subscriptions = %v, want %d", got, tg.NumQueries())
	}
	// No heartbeats are configured, so the stream quiesces and the
	// counts settle to equality.
	for _, pair := range [][2]string{
		{"server.frames_in", "client.frames_out"},
		{"server.frames_out", "client.frames_in"},
		{"server.updates.streamed", "client.updates.applied"},
	} {
		deadline := time.Now().Add(5 * time.Second)
		for counter(pair[0]) != creg.Counter(pair[1]).Value() {
			if time.Now().After(deadline) {
				t.Fatalf("%s = %d, %s = %d", pair[0], counter(pair[0]), pair[1], creg.Counter(pair[1]).Value())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Convergence was purely incremental: every commit acknowledged,
	// nothing shed or healed.
	if counter("server.commits") == 0 {
		t.Error("server.commits = 0: the scenario committed nothing")
	}
	for _, name := range []string{"server.sheds", "server.full_answers"} {
		if got := counter(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := creg.Counter("client.reconnects").Value(); got != 0 {
		t.Errorf("client.reconnects = %d, want 0", got)
	}
	if got, evals := counter("engine.steps"), counter("server.evaluations"); got != evals {
		t.Errorf("engine.steps = %d but server.evaluations = %d: the engine should step once per evaluation", got, evals)
	}
	if counter("server.bytes_in") == 0 || counter("server.bytes_out") == 0 {
		t.Error("byte counters did not record")
	}

	// And the registry snapshot holds all three tiers — what
	// `cqp-server -metrics` serves. The server injects its wall clock
	// into the engine when a registry is configured, so the step
	// latency histogram must have filled too.
	snap := reg.Snapshot()
	for _, name := range []string{"engine.steps", "server.frames_in", "server.commits"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("snapshot missing %s", name)
		}
	}
	if got := reg.Histogram("engine.step_ns", obs.DurationBuckets).Count(); got == 0 {
		t.Error("engine.step_ns is empty despite the server-injected clock")
	}
}
