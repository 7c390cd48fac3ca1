package server

import (
	"bytes"
	"net"
	"sync"
	"testing"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/wire"
)

// gatedProcessor holds every StepAppend until the test releases it, so a
// test can act while a step is in flight.
type gatedProcessor struct {
	core.Processor
	entered chan struct{} // receives once per StepAppend entry
	release chan struct{} // closed by open to let steps finish
	once    sync.Once
}

func (p *gatedProcessor) open() { p.once.Do(func() { close(p.release) }) }

func newGatedProcessor(t *testing.T) *gatedProcessor {
	t.Helper()
	return &gatedProcessor{
		Processor: core.MustNewEngine(core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}),
		entered:   make(chan struct{}, 1),
		release:   make(chan struct{}),
	}
}

func (p *gatedProcessor) StepAppend(dst []core.Update, now float64) []core.Update {
	p.entered <- struct{}{}
	<-p.release
	return p.Processor.StepAppend(dst, now)
}

func (s *Server) inboxLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.objs) + len(s.qrys)
}

func objectReport(i int) wire.ObjectReport {
	return wire.ObjectReport{Update: core.ObjectUpdate{
		ID: core.ObjectID(i + 1), Kind: core.Moving, Loc: geo.Pt(float64(i%10), 5),
	}}
}

// sendReports writes object reports [from, to) on conn in one flush.
func sendReports(t *testing.T, conn net.Conn, from, to int) {
	t.Helper()
	w := wire.NewWriter(conn)
	for i := from; i < to; i++ {
		if err := w.WriteBuffered(objectReport(i)); err != nil {
			t.Error(err)
			return
		}
	}
	if err := w.Flush(); err != nil {
		t.Error(err)
	}
}

// waitCounter polls c until it reaches want.
func waitCounter(t *testing.T, name string, c *obs.Counter, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for c.Value() < want {
		if time.Now().After(deadline) {
			t.Fatalf("%s = %d, want %d", name, c.Value(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// blockedStep starts a server on a gated processor, feeds it batch object
// reports over a raw connection, and starts an Evaluate that blocks in
// StepAppend with those reports in flight. The caller calls p.open to
// let it finish; a failed test's cleanup does so too.
func blockedStep(t *testing.T, batch int) (*Server, *obs.Registry, *gatedProcessor, net.Conn, <-chan int) {
	t.Helper()
	reg := obs.NewRegistry()
	p := newGatedProcessor(t)
	s := startServer(t, Config{Processor: p, Metrics: reg})
	t.Cleanup(p.open) // runs before the server's Close
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sendReports(t, conn, 0, batch)
	// Wait on the inbox itself: frames_in counts a frame before it is
	// handled, and the step must take all batch reports.
	for deadline := time.Now().Add(5 * time.Second); s.inboxLen() < batch; {
		if time.Now().After(deadline) {
			t.Fatalf("inbox holds %d reports, want %d", s.inboxLen(), batch)
		}
		time.Sleep(time.Millisecond)
	}
	evaluated := make(chan int, 1)
	go func() { evaluated <- s.Evaluate() }()
	<-p.entered
	return s, reg, p, conn, evaluated
}

// TestIngestContinuesDuringStep: while a step is in flight the read loop
// keeps reading reports — exactly one in-flight batch's worth — and then
// stalls until the step ends.
func TestIngestContinuesDuringStep(t *testing.T) {
	const batch = 50
	s, reg, p, conn, evaluated := blockedStep(t, batch)
	framesIn := reg.Counter("server.frames_in")
	stalls := reg.Counter("server.ingest_stalls")

	sendReports(t, conn, batch, 4*batch)
	// (a) Reports keep being read while StepAppend is blocked.
	waitCounter(t, "server.frames_in", framesIn, 2*batch)
	// (b) ...but no more than one in-flight batch's worth: the reader
	// stalls on the batch-th report and reads nothing further.
	waitCounter(t, "server.ingest_stalls", stalls, 1)
	time.Sleep(50 * time.Millisecond)
	if got := framesIn.Value(); got != 2*batch {
		t.Fatalf("server.frames_in = %d while stalled, want %d", got, 2*batch)
	}
	if inbox := s.inboxLen(); inbox != batch {
		t.Fatalf("inbox holds %d reports during the step, want %d", inbox, batch)
	}

	p.open()
	<-evaluated
	waitCounter(t, "server.frames_in", framesIn, 4*batch)
	evaluateUntil(t, s, func() bool { return s.Stats().ObjectReports == 4*batch })
}

// TestCloseReturnsWhileIngestStalled: Close does not wait for the step a
// stalled reader is waiting on.
func TestCloseReturnsWhileIngestStalled(t *testing.T) {
	const batch = 20
	s, reg, p, conn, evaluated := blockedStep(t, batch)
	sendReports(t, conn, batch, 3*batch)
	waitCounter(t, "server.ingest_stalls", reg.Counter("server.ingest_stalls"), 1)

	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind a stalled reader")
	}
	p.open()
	<-evaluated
}

// TestCommitAnswersLastCompletedStep: a Commit with reports still in the
// inbox is acknowledged against the last completed step; it neither
// forces an evaluation nor heals the client with a full answer.
func TestCommitAnswersLastCompletedStep(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, Config{Metrics: reg})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)})
	evaluateUntil(t, s, func() bool { ans, _ := c.Answer(1); return len(ans) == 1 })

	evaluations := reg.Counter("server.evaluations").Value()
	c.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(5.5, 5.5), T: 1})
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, c, client.EventCommitted)
	if got := reg.Counter("server.evaluations").Value(); got != evaluations {
		t.Errorf("server.evaluations = %d after a commit, want %d", got, evaluations)
	}
	if got := reg.Counter("server.full_answers").Value(); got != 0 {
		t.Errorf("server.full_answers = %d, want 0", got)
	}
	// The pending report is evaluated by the next step as usual.
	evaluateUntil(t, s, func() bool { ans, _ := c.Answer(1); return len(ans) == 2 })
}

// TestIngestObjectReportAllocs pins the per-frame ingest path — decode
// plus handleMessage, with the byte accounting the read loop does — in
// steady state, once the inbox has grown to a step's worth of reports.
// The one allocation left is the decoded message's interface box.
func TestIngestObjectReportAllocs(t *testing.T) {
	s := startServer(t, Config{})
	const runs = 1000
	var frames bytes.Buffer
	w := wire.NewWriter(&frames)
	for i := 0; i < 2*(runs+1); i++ {
		if err := w.WriteBuffered(objectReport(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(&frames)
	ingest := func() {
		msg, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		s.m.framesIn.Inc()
		s.m.bytesIn.Add(uint64(r.FrameSize()))
		s.handleMessage(nil, msg)
	}
	// One step's worth of reports lands in the spare buffer, and the next
	// step swaps that grown buffer back in as the inbox.
	for range runs + 1 {
		ingest()
	}
	s.Evaluate()
	s.Evaluate()
	if allocs := testing.AllocsPerRun(runs, ingest); allocs > 1 {
		t.Fatalf("ingest allocates %.0f times per ObjectReport frame, budget 1", allocs)
	}
}

// TestEvaluateSteadyStateAllocs pins a steady-state tick with one update
// for one session: the core engine's one per-step allocation, plus the
// stepDone channel, the session's batch slice and its message box. The
// fan-out map is reused across ticks; a fresh map costs two more.
func TestEvaluateSteadyStateAllocs(t *testing.T) {
	s := startServer(t, Config{})
	local, remote := net.Pipe()
	defer local.Close()
	defer remote.Close()
	sess := &session{conn: local, w: wire.NewWriter(local), outbox: make(chan wire.Message, 1)}
	s.mu.Lock()
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.handleMessage(sess, wire.QueryReport{Update: core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)}})
	// The object alternates in and out of the query: one update per tick.
	moves := [2]wire.Message{
		wire.ObjectReport{Update: core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5)}},
		wire.ObjectReport{Update: core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(9, 9)}},
	}
	tick := 0
	step := func() {
		s.handleMessage(sess, moves[tick%2])
		tick++
		if n := s.Evaluate(); n != 1 {
			t.Fatalf("tick %d produced %d updates, want 1", tick, n)
		}
		<-sess.outbox
	}
	for range 10 {
		step()
	}
	const budget = 4
	if allocs := testing.AllocsPerRun(200, step); allocs > budget {
		t.Fatalf("a steady-state tick allocates %.0f times, budget %d", allocs, budget)
	}
}
