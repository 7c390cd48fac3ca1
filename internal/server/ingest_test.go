package server

import (
	"bytes"
	"io"
	"net"
	"reflect"
	"slices"
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

// sendReports writes object reports [from, to) on conn in one write.
func sendReports(t *testing.T, conn net.Conn, from, to int) {
	t.Helper()
	if _, err := conn.Write(reportFrames(t, from, to)); err != nil {
		t.Error(err)
	}
}

// reportFrames returns object reports [from, to) encoded back to back.
func reportFrames(tb testing.TB, from, to int) []byte {
	var frames bytes.Buffer
	w := wire.NewWriter(&frames)
	for i := from; i < to; i++ {
		if err := w.WriteBuffered(objectReport(i)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return frames.Bytes()
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
	// frames_in counts a report once it is in the inbox, so the step
	// takes all batch reports.
	waitCounter(t, "server.frames_in", reg.Counter("server.frames_in"), uint64(batch))
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

// TestFramesInCountsAppliedFrames: frames_in counts a frame once it is
// applied, so a caller that sees frames_in reach n may step on the n
// frames. A query report held back by the server lock is not counted.
func TestFramesInCountsAppliedFrames(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, Config{Metrics: reg})
	framesIn := reg.Counter("server.frames_in")
	conn, err := net.Dial("tcp", s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		s.mu.Lock()
		if len(s.sessions) == 1 {
			break // the read loop is running; keep the lock
		}
		s.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("session never registered")
		}
	}
	q := wire.QueryReport{Update: core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 10, 10)}}
	if err := wire.NewWriter(conn).Write(q); err != nil {
		s.mu.Unlock()
		t.Fatal(err)
	}
	for deadline := time.Now().Add(200 * time.Millisecond); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		if got := framesIn.Value(); got != 0 {
			n := len(s.qrys)
			s.mu.Unlock()
			t.Fatalf("frames_in = %d with %d query reports in the inbox", got, n)
		}
	}
	s.mu.Unlock()
	waitCounter(t, "server.frames_in", framesIn, 1)
	s.Evaluate()
	if _, ok := s.Answer(1); !ok {
		t.Fatal("query 1 unknown after frames_in counted its report and a step ran")
	}
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

// readAll runs the read loop until r reaches the end of its stream.
func readAll(tb testing.TB, s *Server, sess *session, r *wire.Reader) {
	if err := s.readLoop(sess, r); err != io.EOF {
		tb.Fatalf("read loop ended with %v, want EOF", err)
	}
}

// TestIngestObjectReportAllocs pins the production ingest path —
// readLoop decoding object reports into the session's run and flushing
// runs into the inbox, with its byte accounting — at zero allocations,
// once the run and the inbox have grown to a step's worth of reports.
func TestIngestObjectReportAllocs(t *testing.T) {
	s := startServer(t, Config{})
	const frames = 5000
	raw := reportFrames(t, 0, frames)
	var in bytes.Buffer
	r := wire.NewReader(&in)
	sess := &session{}
	ingest := func() {
		in.Write(raw)
		readAll(t, s, sess, r)
	}
	// AllocsPerRun ingests twice (a warm-up and the measured run). The
	// next step swaps the spare buffer, grown to that much by the first
	// step, back in as the inbox.
	ingest()
	ingest()
	s.Evaluate()
	s.Evaluate()
	if allocs := testing.AllocsPerRun(1, ingest); allocs != 0 {
		t.Fatalf("ingesting %d ObjectReport frames allocates %.0f times, want 0", frames, allocs)
	}
}

// TestIngestRunMatchesPerFrame: object reports interleaved with query
// reports, a wakeup, a commit and a heartbeat, arriving in one flush and
// ingested in runs, leave the inbox, the subscriptions, the frame and
// byte counts and the engine exactly as the same bytes read one frame at
// a time do. The wakeup of an unknown query evaluates the inbox, so a
// report still held in a run when it arrived would show.
func TestIngestRunMatchesPerFrame(t *testing.T) {
	var msgs []wire.Message
	reports := func(from, to int) {
		for i := from; i < to; i++ {
			msgs = append(msgs, objectReport(i))
		}
	}
	const lead = 150 // more than two runs, and more than two buffer fills
	reports(0, lead)
	msgs = append(msgs, wire.ObjectReport{Update: core.ObjectUpdate{
		ID: 900, Kind: core.Predictive, Loc: geo.Pt(1, 1), Vel: geo.Vec(0.1, 0),
		Waypoints: []geo.TimedPoint{{P: geo.Pt(2, 1), T: 10}},
	}})
	msgs = append(msgs, wire.QueryReport{Update: core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 5, 5)}})
	reports(10, 20)
	msgs = append(msgs, wire.Wakeup{Update: core.QueryUpdate{ID: 5, Kind: core.Range, Region: geo.R(0, 0, 2, 2)}})
	reports(30, 35)
	msgs = append(msgs, wire.Commit{Query: 1, Checksum: 7}, wire.Heartbeat{Time: 0})
	msgs = append(msgs, wire.ObjectReport{Update: core.ObjectUpdate{ID: 3, Remove: true}})
	msgs = append(msgs, wire.QueryReport{Update: core.QueryUpdate{ID: 2, Kind: core.KNN, Focal: geo.Pt(5, 5), K: 3}})
	reports(20, 40)

	var wantObjs []core.ObjectUpdate
	var wantQrys []core.QueryUpdate
	var frames [][]byte
	var all []byte
	for _, m := range msgs {
		switch m := m.(type) {
		case wire.Wakeup:
			wantObjs, wantQrys = nil, nil // its step evaluates the inbox
		case wire.ObjectReport:
			wantObjs = append(wantObjs, m.Update)
		case wire.QueryReport:
			wantQrys = append(wantQrys, m.Update)
		}
		var buf bytes.Buffer
		if err := wire.NewWriter(&buf).Write(m); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, buf.Bytes())
		all = append(all, buf.Bytes()...)
	}

	// ingest returns what a server's read loop made of chunks, fed to it
	// one at a time.
	type ingested struct {
		objs            []core.ObjectUpdate
		qrys            []core.QueryUpdate
		subs            []core.QueryID
		framesIn, bytes uint64
		evaluated       int // objects in the engine
	}
	ingest := func(chunks [][]byte) ingested {
		s := startServer(t, Config{})
		sess := &session{outbox: make(chan wire.Message, 4)}
		var in bytes.Buffer
		r := wire.NewReader(&in)
		for _, c := range chunks {
			in.Write(c)
			readAll(t, s, sess, r)
		}
		evaluated := s.NumObjects()
		s.mu.Lock()
		defer s.mu.Unlock()
		got := ingested{objs: s.objs, qrys: s.qrys,
			framesIn: s.m.framesIn.Value(), bytes: s.m.bytesIn.Value(), evaluated: evaluated}
		for q, owner := range s.subs {
			if owner != sess {
				t.Errorf("query %d subscribed to another session", q)
			}
			got.subs = append(got.subs, q)
		}
		slices.Sort(got.subs)
		return got
	}
	perFrame := ingest(frames)
	runs := ingest([][]byte{all})
	want := ingested{objs: wantObjs, qrys: wantQrys, subs: []core.QueryID{1, 2, 5},
		framesIn: uint64(len(msgs)), bytes: uint64(len(all)),
		evaluated: lead + 1} // every object reported before the wakeup
	if !reflect.DeepEqual(perFrame, want) {
		t.Fatalf("per-frame ingest:\n got %+v\nwant %+v", perFrame, want)
	}
	if !reflect.DeepEqual(runs, perFrame) {
		t.Fatalf("ingest in runs:\n got %+v\nwant %+v", runs, perFrame)
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
	var moves [2][]byte
	for i, loc := range []geo.Point{geo.Pt(5, 5), geo.Pt(9, 9)} {
		var frame bytes.Buffer
		wire.NewWriter(&frame).Write(wire.ObjectReport{Update: core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: loc}})
		moves[i] = frame.Bytes()
	}
	var in bytes.Buffer
	r := wire.NewReader(&in)
	tick := 0
	step := func() {
		in.Write(moves[tick%2])
		readAll(t, s, sess, r)
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

// BenchmarkIngestRun times the read loop's ingest path: pre-encoded
// ObjectReport frames decoded unboxed into runs and appended to the
// inbox. One op is one frame.
func BenchmarkIngestRun(b *testing.B) {
	s := startServer(b, Config{})
	const chunk = 4096 // frames per readLoop pass
	raw := reportFrames(b, 0, chunk)
	size := len(raw) / chunk
	var in bytes.Buffer
	r := wire.NewReader(&in)
	sess := &session{}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for left := b.N; left > 0; left -= chunk {
		in.Write(raw[:min(left, chunk)*size])
		readAll(b, s, sess, r)
		b.StopTimer()
		s.mu.Lock()
		s.objs = s.objs[:0]
		s.mu.Unlock()
		b.StartTimer()
	}
}
