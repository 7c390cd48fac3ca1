package cqp_test

import (
	"bufio"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"cqp"
	"cqp/internal/obs"
	"cqp/internal/trace"
)

// writePipelineTrace mirrors cmd/cqp-gen: tick 0 reports the full
// population, later ticks re-report a seeded random fraction as the
// world advances along the road network.
func writePipelineTrace(t *testing.T, path string, objects, queries, ticks int, rate float64) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	tw := trace.NewWriter(bw)

	const seed = 7
	net := cqp.GenerateRoadNetwork(cqp.RoadNetworkConfig{Lattice: 8, Seed: seed})
	world := cqp.MustNewWorld(cqp.WorldConfig{Net: net, NumObjects: objects, Seed: seed})
	rng := rand.New(rand.NewSource(seed + 1))

	emitObject := func(tick, i int) {
		loc, vel := world.Object(i)
		if err := tw.WriteObject(tick, world.Now(), cqp.ObjectID(i+1), loc, vel); err != nil {
			t.Fatal(err)
		}
	}
	emitQuery := func(tick, j int) {
		loc, _ := world.Object(j % objects)
		if err := tw.WriteQuery(tick, world.Now(), cqp.QueryID(j+1), cqp.RectAt(loc, 0.08)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < objects; i++ {
		emitObject(0, i)
	}
	for j := 0; j < queries; j++ {
		emitQuery(0, j)
	}
	for tick := 1; tick <= ticks; tick++ {
		world.Advance(5)
		for i := 0; i < objects; i++ {
			if rng.Float64() < rate {
				emitObject(tick, i)
			}
		}
		for j := 0; j < queries; j++ {
			if rng.Float64() < rate {
				emitQuery(tick, j)
			}
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
}

// readPipelineTrace loads a trace back, grouped by tick so the replay
// can evaluate at tick boundaries.
func readPipelineTrace(t *testing.T, path string) [][]trace.Record {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var ticks [][]trace.Record
	tr := trace.NewReader(f)
	for {
		rec, err := tr.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		for len(ticks) <= rec.Tick {
			ticks = append(ticks, nil)
		}
		ticks[rec.Tick] = append(ticks[rec.Tick], rec)
	}
	return ticks
}

// TestPipelineTraceThroughServerMatchesDirect is the whole toolchain in
// one test: a cqp-gen-equivalent trace written to disk, replayed
// cqp-replay-style through a live TCP server into clients, with a
// metrics registry watching every tier. Every client's converged
// answers must equal a direct core.Engine run of the same trace file,
// and the server's counters must equal the traffic the endpoints
// observed.
//
// The single-session case evaluates by hand at tick boundaries. The
// multi-session case is the soak: the trace's records split across
// concurrent sessions by object and query ID, queries moving, under
// ticker-driven evaluation. It must converge to the same answers with
// no shed session and no full-answer heal.
func TestPipelineTraceThroughServerMatchesDirect(t *testing.T) {
	const (
		objects = 60
		queries = 10
		ticks   = 8
	)
	path := filepath.Join(t.TempDir(), "trace.csv")
	writePipelineTrace(t, path, objects, queries, ticks, 0.4)
	batches := readPipelineTrace(t, path)

	// Reference: the same records straight into an embedded engine.
	// Range answers depend only on the latest reports, not evaluation
	// cadence, so the networked run must converge to exactly this.
	direct := cqp.MustNewEngine(cqp.Options{Bounds: cqp.R(0, 0, 1, 1), GridN: 16})
	for _, batch := range batches {
		var now float64
		for _, rec := range batch {
			if rec.IsQuery {
				direct.ReportQuery(rec.QueryUpdate())
			} else {
				direct.ReportObject(rec.ObjectUpdate())
			}
			now = rec.Time
		}
		direct.Step(now)
	}

	for _, tc := range []struct {
		name     string
		sessions int
		interval time.Duration
	}{
		{"one-session-manual", 1, 0},
		{"four-sessions-ticker", 4, 10 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runPipelineThroughServer(t, batches, direct, queries, tc.sessions, tc.interval)
		})
	}
}

// runPipelineThroughServer replays batches through a live server into
// sessions clients and checks convergence to direct plus the ledger.
// Record IDs pick the session (ID mod sessions), so every object's and
// query's reports stay ordered on one connection and each query is
// owned by exactly one client. With interval zero the test evaluates at
// tick boundaries; otherwise only the server's ticker does.
func runPipelineThroughServer(t *testing.T, batches [][]trace.Record, direct *cqp.Engine, queries, sessions int, interval time.Duration) {
	reg := cqp.NewMetricsRegistry()
	s, err := cqp.Listen("127.0.0.1:0", cqp.ServerConfig{
		Engine:   cqp.Options{Bounds: cqp.R(0, 0, 1, 1), GridN: 16},
		Interval: interval,
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// One client registry shared by every session sums their counters,
	// the mirror image of the server's.
	creg := cqp.NewMetricsRegistry()
	clients := make([]*cqp.Client, sessions)
	for i := range clients {
		c, err := cqp.DialOptions(s.Addr().String(), cqp.ClientOptions{Metrics: creg})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() { // drain events; answers accumulate inside the client
			for range c.Events() {
			}
		}()
		clients[i] = c
	}
	sessionOf := func(rec trace.Record) int {
		if rec.IsQuery {
			return int(rec.QueryUpdate().ID) % sessions
		}
		return int(rec.ObjectUpdate().ID) % sessions
	}
	owner := func(q cqp.QueryID) *cqp.Client { return clients[int(q)%sessions] }

	// Replay (cqp-replay with -speedup 0): every session feeds its share
	// of each tick's records concurrently with the others.
	reports := 0
	for _, batch := range batches {
		errs := make(chan error, sessions)
		for i, c := range clients {
			go func() {
				for _, rec := range batch {
					if sessionOf(rec) != i {
						continue
					}
					var err error
					if rec.IsQuery {
						err = c.RegisterQuery(rec.QueryUpdate())
					} else {
						err = c.ReportObject(rec.ObjectUpdate())
					}
					if err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for range clients {
			if err := <-errs; err != nil {
				t.Fatal(err)
			}
		}
		reports += len(batch)
		if interval == 0 {
			s.Evaluate()
		}
	}

	// Converge by polling, without commits: a commit racing in-flight
	// updates is healed with a full answer, which this run must not need.
	answersEqual := func(q cqp.QueryID) bool {
		want, _ := direct.Answer(q)
		got, ok := owner(q).Answer(q)
		if !ok || len(got) != len(want) {
			return false
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	for q := cqp.QueryID(1); q <= cqp.QueryID(queries); q++ {
		deadline := time.Now().Add(10 * time.Second)
		for !answersEqual(q) {
			if time.Now().After(deadline) {
				want, _ := direct.Answer(q)
				got, _ := owner(q).Answer(q)
				t.Fatalf("query %d never converged to the direct run:\nclient: %v\ndirect: %v", q, got, want)
			}
			if interval == 0 {
				s.Evaluate()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// The server's ledger must agree with what both endpoints saw.
	counter := func(name string) uint64 { return reg.Counter(name).Value() }
	if got := reg.Gauge("server.sessions").Value(); got != int64(sessions) {
		t.Errorf("server.sessions = %d, want %d", got, sessions)
	}
	if got := counter("server.sessions_total"); got != uint64(sessions) {
		t.Errorf("server.sessions_total = %d, want %d", got, sessions)
	}
	if got := reg.Gauge("server.subscriptions").Value(); got != int64(queries) {
		t.Errorf("server.subscriptions = %d, want %d", got, queries)
	}
	// Every report traveled one frame; the clients also wrote
	// the initial hello-free stream, so frames_in is exactly the
	// clients' successful writes. No heartbeats are configured, so the
	// stream quiesces and the counts settle to equality.
	waitCounters := func(name string, got func() uint64, want func() uint64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for got() != want() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: server=%d client=%d", name, got(), want())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitCounters("server.frames_in vs client.frames_out",
		func() uint64 { return counter("server.frames_in") },
		func() uint64 { return creg.Counter("client.frames_out").Value() })
	waitCounters("server.frames_out vs client.frames_in",
		func() uint64 { return counter("server.frames_out") },
		func() uint64 { return creg.Counter("client.frames_in").Value() })
	waitCounters("server.updates.streamed vs client.updates.applied",
		func() uint64 { return counter("server.updates.streamed") },
		func() uint64 { return creg.Counter("client.updates.applied").Value() })
	// Commit once the stream has quiesced. With one session every report
	// precedes the commit on the same connection, so the server's answer
	// is final when it checks the client's checksum: each commit must be
	// acknowledged, not healed.
	if sessions == 1 {
		s.Evaluate()
		waitCounters("server.updates.streamed vs client.updates.applied",
			func() uint64 { return counter("server.updates.streamed") },
			func() uint64 { return creg.Counter("client.updates.applied").Value() })
		for q := cqp.QueryID(1); q <= cqp.QueryID(queries); q++ {
			if err := owner(q).Commit(q); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for reg.Counter("server.commits").Value() < uint64(queries) {
			if time.Now().After(deadline) {
				t.Fatalf("server.commits = %d, want %d", reg.Counter("server.commits").Value(), queries)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	// Convergence was purely incremental: nothing shed, dropped or healed.
	for _, name := range []string{"server.sheds", "server.outbox_dropped", "server.full_answers"} {
		if got := counter(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := creg.Counter("client.reconnects").Value(); got != 0 {
		t.Errorf("client.reconnects = %d, want 0", got)
	}
	if in := counter("server.frames_in"); in < uint64(reports) {
		t.Errorf("server.frames_in = %d, want at least the %d replayed reports", in, reports)
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
