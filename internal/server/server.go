// Package server implements the location-aware server: a TCP front end
// over the incremental query processor (internal/core) with periodic bulk
// evaluation, per-query update streaming, durable commits through the
// repository, and the paper's out-of-sync client protocol.
//
// Protocol summary (see internal/wire):
//
//   - Clients push MsgObjectReport and MsgQueryReport; reports are
//     buffered and evaluated in bulk every evaluation interval.
//   - After each evaluation the server pushes one MsgUpdateBatch per
//     subscribed connection carrying only the positive/negative updates of
//     that connection's queries.
//   - MsgCommit acknowledges the stream; if the client's answer checksum
//     matches the server's answer as of the last completed evaluation,
//     the answer is committed (and persisted), otherwise the server heals
//     the client with a MsgFullAnswer.
//   - MsgWakeup reconnects an out-of-sync client: if its checksum matches
//     the committed answer the server replies with the incremental
//     MsgRecoveryDiff, otherwise with a complete MsgFullAnswer.
//
// Connection lifecycle: each session owns a bounded outbox drained by a
// dedicated writer goroutine, so a stalled TCP peer can never block an
// evaluation tick. When the outbox overflows the session is shed — a shed
// client is simply an out-of-sync client, and the paper's wakeup protocol
// heals it on reconnect. Optional per-session read deadlines paired with
// periodic heartbeats reap silently dead peers, and Close drains every
// outbox before tearing connections down.
package server

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"sync"
	"time"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/repository"
	"cqp/internal/wire"
)

// Defaults for the connection-lifecycle knobs in Config.
const (
	// DefaultWriteTimeout bounds one outbound frame write.
	DefaultWriteTimeout = 5 * time.Second
	// DefaultOutboxSize is the per-session outbound queue depth.
	DefaultOutboxSize = 128
	// DefaultMaxFrame caps inbound frames. Every legitimate
	// client→server message is far smaller; larger prefixes are hostile.
	DefaultMaxFrame = 1 << 20
)

// Config parameterizes a Server.
type Config struct {
	// Engine configures the underlying query processor. Required.
	Engine core.Options

	// Processor, when non-nil, is used as the query processor instead of
	// constructing a core.Engine from Engine (which is then ignored). The
	// server wraps every processor in core.Protocol and takes ownership:
	// Close closes it if it implements io.Closer. It carries a processor
	// the server does not build itself, such as the tests' gated one.
	Processor core.Processor

	// Interval is the bulk-evaluation period Δt (the paper evaluates
	// every 5 seconds; tests use milliseconds). Zero disables the
	// automatic ticker; evaluation then happens only through Evaluate,
	// which tests use for determinism.
	Interval time.Duration

	// RepositoryDir enables durable commit persistence and location
	// history when non-empty.
	RepositoryDir string

	// Logger receives connection-level errors. Defaults to the standard
	// logger.
	Logger *log.Logger

	// Listener, when non-nil, is used instead of listening on the addr
	// passed to Listen. Tests use it to interpose fault injection
	// (internal/faultnet) or custom transports.
	Listener net.Listener

	// ReadTimeout is the per-message read deadline of a session; a peer
	// silent for longer is reaped. Zero disables deadlines. When set it
	// should comfortably exceed HeartbeatInterval so live-but-idle
	// clients (which echo heartbeats) survive.
	ReadTimeout time.Duration

	// WriteTimeout bounds each outbound frame write. Defaults to
	// DefaultWriteTimeout; negative disables the deadline.
	WriteTimeout time.Duration

	// HeartbeatInterval is the period of server→client heartbeats. Zero
	// disables them.
	HeartbeatInterval time.Duration

	// OutboxSize is the per-session outbound queue depth; when a
	// session's outbox is full the client is shed (disconnected) rather
	// than allowed to stall evaluation. Defaults to DefaultOutboxSize.
	// Size it from the sheds the serve-bulk and ingest-flood benchmark
	// workloads report: depth ≈ burst frames per evaluation ×
	// evaluations a slow client may fall behind.
	OutboxSize int

	// MaxFrame caps inbound frame payloads. Defaults to DefaultMaxFrame.
	MaxFrame uint32

	// Metrics, when non-nil, registers the server's session metrics and
	// is threaded into the processor as Engine.Metrics (with
	// obs.WallClock as the engine clock unless Engine.Clock is already
	// set), so one registry carries all three tiers. The caller owns the
	// registry and typically serves it via obs.Handler.
	Metrics *obs.Registry
}

// Server is a running location-aware server. Create with Listen, stop
// with Close.
type Server struct {
	stepMu     sync.Mutex // owns the next three fields; taken before mu
	engine     *core.Protocol
	updBuf     []core.Update              // step's StepAppend buffer
	perSession map[*session][]core.Update // step's fan-out grouping

	mu              sync.Mutex // guards the session tables and the report inbox
	subs            map[core.QueryID]*session
	sessions        map[*session]struct{}
	draining        bool // set by Close: no further outbox enqueues
	objs, spareObjs []core.ObjectUpdate
	qrys, spareQrys []core.QueryUpdate
	inflight        int           // reports the running step evaluates
	stepDone        chan struct{} // closed when that step ends; nil between steps

	repo *repository.Repository // nil when persistence is disabled
	m    *serverMetrics

	ln           net.Listener
	logger       *log.Logger
	interval     time.Duration
	readTimeout  time.Duration
	writeTimeout time.Duration
	heartbeat    time.Duration
	outboxSize   int
	maxFrame     uint32
	maxSpeed     float64 // Engine.MaxSpeed: the repository keeps the reports it accepts
	start        time.Time

	wg        sync.WaitGroup
	closed    chan struct{}
	closeOnce sync.Once
}

// session is one client connection. The read loop (handleConn) and the
// writer goroutine share it; `dead` is guarded by its own mutex because
// the writer flips it without holding the server lock.
type session struct {
	conn       net.Conn
	w          *wire.Writer
	outbox     chan wire.Message
	outboxOnce sync.Once // guards close(outbox); callers hold Server.mu
	writerDone chan struct{}

	run      []core.ObjectUpdate // the read loop's reports not yet in the inbox
	runBytes int                 // their frames' size, header included

	mu   sync.Mutex
	dead bool
}

// markDead flags the session and closes its connection (once). Safe from
// any goroutine.
func (sess *session) markDead() {
	sess.mu.Lock()
	already := sess.dead
	sess.dead = true
	sess.mu.Unlock()
	if !already {
		sess.conn.Close()
	}
}

func (sess *session) isDead() bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.dead
}

// closeOutbox releases the writer goroutine. Callers must hold Server.mu
// so the close cannot race an enqueue.
func (sess *session) closeOutbox() {
	sess.outboxOnce.Do(func() { close(sess.outbox) })
}

// Listen starts a server on addr (e.g. "127.0.0.1:0"). When cfg.Listener
// is set, addr is ignored and the provided listener is served instead.
func Listen(addr string, cfg Config) (*Server, error) {
	engine, err := newProcessor(cfg)
	if err != nil {
		return nil, err
	}
	var repo *repository.Repository
	if cfg.RepositoryDir != "" {
		repo, err = repository.Open(cfg.RepositoryDir)
		if err != nil {
			closeProcessor(engine)
			return nil, err
		}
	}
	ln := cfg.Listener
	if ln == nil {
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			if repo != nil {
				repo.Close()
			}
			closeProcessor(engine)
			return nil, fmt.Errorf("server: listen: %w", err)
		}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = log.Default()
	}
	writeTimeout := cfg.WriteTimeout
	switch {
	case writeTimeout == 0:
		writeTimeout = DefaultWriteTimeout
	case writeTimeout < 0:
		writeTimeout = 0
	}
	outboxSize := cfg.OutboxSize
	if outboxSize <= 0 {
		outboxSize = DefaultOutboxSize
	}
	maxFrame := cfg.MaxFrame
	if maxFrame == 0 {
		maxFrame = DefaultMaxFrame
	}
	s := &Server{
		engine:       core.NewProtocol(engine),
		m:            newServerMetrics(cfg.Metrics),
		repo:         repo,
		subs:         make(map[core.QueryID]*session),
		sessions:     make(map[*session]struct{}),
		perSession:   make(map[*session][]core.Update),
		ln:           ln,
		logger:       logger,
		interval:     cfg.Interval,
		readTimeout:  cfg.ReadTimeout,
		writeTimeout: writeTimeout,
		heartbeat:    cfg.HeartbeatInterval,
		outboxSize:   outboxSize,
		maxFrame:     maxFrame,
		maxSpeed:     cfg.Engine.MaxSpeed,
		start:        time.Now(),
		closed:       make(chan struct{}),
	}
	// Restore the stationary-object catalog (gas stations, hospitals, ...)
	// from the repository: stationary objects do not re-report after a
	// restart the way moving clients do.
	if repo != nil {
		err := repo.VisitStationary(func(id core.ObjectID, loc geo.Point) bool {
			s.engine.ReportObject(core.ObjectUpdate{ID: id, Kind: core.Stationary, Loc: loc})
			return true
		})
		if err != nil {
			ln.Close()
			repo.Close()
			closeProcessor(engine)
			return nil, err
		}
		s.engine.Step(0)
	}
	s.registerStateGauges(cfg.Metrics)

	s.wg.Add(1)
	go s.acceptLoop()
	if s.interval > 0 {
		s.wg.Add(1)
		go s.every(s.interval, func() { s.Evaluate() })
	}
	if s.heartbeat > 0 {
		s.wg.Add(1)
		go s.every(s.heartbeat, s.sendHeartbeats)
	}
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting connections, drains every session's queued
// outbound frames, terminates all sessions, and closes the repository.
// It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closeOnce.Do(func() {
		close(s.closed)
		err = s.ln.Close()
		s.mu.Lock()
		s.draining = true
		// Release every writer: it drains its queued frames, then closes
		// the connection, which in turn unblocks the session's read loop.
		for sess := range s.sessions {
			sess.closeOutbox()
		}
		s.mu.Unlock()
		s.wg.Wait()
		if s.repo != nil {
			if rerr := s.repo.Close(); err == nil {
				err = rerr
			}
		}
		closeProcessor(s.engine.Processor)
	})
	return err
}

// newProcessor builds the query processor: Config.Processor if set,
// otherwise a core.Engine, which spreads a large step's join over the
// CPUs itself. When metrics are enabled the engine options inherit the
// registry, and the wall clock is injected here — the deterministic
// engine packages never read it themselves.
func newProcessor(cfg Config) (core.Processor, error) {
	if cfg.Processor != nil {
		return cfg.Processor, nil
	}
	if cfg.Metrics != nil {
		cfg.Engine.Metrics = cfg.Metrics
		if cfg.Engine.Clock == nil {
			cfg.Engine.Clock = obs.WallClock
		}
	}
	return core.NewEngine(cfg.Engine)
}

// closeProcessor releases processor-owned resources (an injected
// router's tile goroutines); the core engine has none.
func closeProcessor(p core.Processor) {
	if c, ok := p.(io.Closer); ok {
		c.Close()
	}
}

// now returns the server clock in seconds since start.
func (s *Server) now() float64 { return time.Since(s.start).Seconds() }

// every runs f each period until Close; the caller has done s.wg.Add(1).
func (s *Server) every(period time.Duration, f func()) {
	defer s.wg.Done()
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-s.closed:
			return
		case <-t.C:
			f()
		}
	}
}

func (s *Server) sendHeartbeats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	now := s.now()
	for sess := range s.sessions {
		s.send(sess, wire.Heartbeat{Time: now})
	}
}

// Evaluate runs one bulk evaluation step and streams the resulting
// incremental updates to subscribed clients. It returns the number of
// updates produced. Exposed for tests and for Interval == 0 setups.
func (s *Server) Evaluate() int {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.step()
}

// step swaps the inbox for the spare buffers and releases mu while it
// feeds the batch to the processor (objects, then queries, each in
// arrival order) and runs StepAppend. Meanwhile the read loops buffer up
// to as many reports as this step evaluates, then wait on stepDone: the
// TCP socket is the bounded queue. Caller holds s.stepMu and s.mu.
func (s *Server) step() int {
	begin := s.m.tracer.Begin()
	s.m.evaluations.Inc()
	now := s.now()
	objs, qrys := s.objs, s.qrys
	s.objs, s.qrys = s.spareObjs, s.spareQrys
	done := make(chan struct{})
	s.inflight, s.stepDone = len(objs)+len(qrys), done
	s.mu.Unlock()
	for _, u := range objs {
		s.engine.ReportObject(u)
	}
	for _, u := range qrys {
		s.engine.ReportQuery(u)
	}
	// StepAppend into a server-owned buffer: the updates are regrouped
	// below and never retained, so a tick avoids Step's slice allocation.
	s.updBuf = s.engine.StepAppend(s.updBuf[:0], now)
	s.mu.Lock()
	s.spareObjs, s.spareQrys = objs[:0], qrys[:0]
	s.stepDone = nil
	close(done)
	// Group per destination session. The map is reused across ticks; the
	// batch slices are not, because the outboxes retain them.
	streamed := 0
	for _, u := range s.updBuf {
		sess, ok := s.subs[u.Query]
		if !ok || sess.isDead() {
			continue
		}
		s.perSession[sess] = append(s.perSession[sess], u)
		streamed++
	}
	s.m.streamed.Add(uint64(streamed))
	// Each batch preserves Step's canonical update order, so the stream
	// any one client sees is reproducible; the enqueue order *across*
	// sessions is not client-observable (each session only receives its
	// own batch, and send never blocks).
	for sess, batch := range s.perSession {
		//lint:allow maporder per-session batch content is canonically ordered; cross-session enqueue order is not observable by any client
		s.send(sess, wire.UpdateBatch{Time: now, Updates: batch})
	}
	clear(s.perSession)
	s.m.tracer.End(s.m.evalLatency, begin)
	return len(s.updBuf)
}

// send enqueues a message on a session's outbox; the session's writer
// goroutine performs the actual (deadline-bounded) write, so evaluation
// never blocks on a slow peer. A full outbox sheds the client: it is
// disconnected and recovers through the wakeup protocol, an
// out-of-sync client as in the paper's failure model. Caller holds
// s.mu.
func (s *Server) send(sess *session, m wire.Message) {
	if s.draining || sess.isDead() {
		return
	}
	select {
	case sess.outbox <- m:
	default:
		s.m.sheds.Inc()
		s.logger.Printf("server: shedding slow client %v (outbox full)", sess.conn.RemoteAddr())
		sess.markDead()
	}
}

// sessionWriter drains one session's outbox onto its connection. It owns
// the wire.Writer: no other goroutine writes to the connection.
//
// Each wakeup drains everything queued at that moment into one buffered
// write: frames are encoded back to back (wire.Writer.WriteBuffered)
// and flushed once, so a burst of B queued frames costs one syscall
// rather than B. The byte stream is identical to per-frame writes —
// framing is per message; flushing is not part of the encoding
// (TestWriterBatchedDrainByteIdentical pins this). The write deadline
// is set once per batch and bounds the whole drain.
func (s *Server) sessionWriter(sess *session) {
	defer close(sess.writerDone)
	for m := range sess.outbox {
		frames := 0
		var bytes uint64
		failed := false
		if s.writeTimeout > 0 && !sess.isDead() {
			sess.conn.SetWriteDeadline(time.Now().Add(s.writeTimeout))
		}
		for ok := true; ok; {
			if !sess.isDead() && !failed {
				if err := sess.w.WriteBuffered(m); err != nil {
					sess.markDead()
					failed = true
				} else {
					frames++
					bytes += uint64(sess.w.FrameSize())
				}
			}
			// Greedy, non-blocking drain: batch whatever else is already
			// queued; a closed outbox ends the range loop after the flush.
			select {
			case m, ok = <-sess.outbox:
			default:
				ok = false
			}
		}
		if frames > 0 && !failed && !sess.isDead() {
			if err := sess.w.Flush(); err != nil {
				sess.markDead()
			} else {
				s.m.framesOut.Add(uint64(frames))
				s.m.bytesOut.Add(bytes)
				s.m.writeBatch.Observe(int64(frames))
			}
		}
	}
	// Outbox closed and drained (graceful shutdown or session teardown):
	// closing the connection unblocks the session's read loop.
	sess.conn.Close()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			s.logger.Printf("server: accept: %v", err)
			continue
		}
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

func (s *Server) handleConn(conn net.Conn) {
	defer s.wg.Done()
	sess := &session{
		conn:       conn,
		w:          wire.NewWriter(conn),
		outbox:     make(chan wire.Message, s.outboxSize),
		writerDone: make(chan struct{}),
	}
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		conn.Close()
		return
	}
	s.sessions[sess] = struct{}{}
	s.mu.Unlock()
	s.m.total.Inc()
	go s.sessionWriter(sess)
	defer func() {
		s.mu.Lock()
		delete(s.sessions, sess)
		sess.markDead()
		sess.closeOutbox()
		s.mu.Unlock()
		<-sess.writerDone
	}()
	err := s.readLoop(sess, wire.NewReaderLimit(conn, s.maxFrame))
	if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !errors.Is(err, os.ErrDeadlineExceeded) {
		select {
		case <-s.closed:
		default:
			s.logger.Printf("server: read from %v: %v", conn.RemoteAddr(), err)
		}
	}
}

// runCap bounds a run (below the 69 reports a 4 KB read buffer holds).
const runCap = 64

// readLoop reads sess's frames until a read fails, and returns that
// error. Object reports are decoded unboxed into sess.run, which joins
// the inbox once no whole frame is left in r's buffer or the run is
// full. Any other frame flushes the run first, to keep arrival order.
func (s *Server) readLoop(sess *session, r *wire.Reader) error {
	var u core.ObjectUpdate
	for {
		if n := len(sess.run); n == runCap || n > 0 && !r.FrameBuffered() {
			s.flushRun(sess)
		}
		if len(sess.run) == 0 && s.readTimeout > 0 { // the read may block
			sess.conn.SetReadDeadline(time.Now().Add(s.readTimeout))
		}
		msg, err := r.ReadObject(&u)
		if msg == nil && err == nil {
			sess.run = append(sess.run, u)
			sess.runBytes += r.FrameSize()
			continue
		}
		s.flushRun(sess)
		if err != nil {
			return err
		}
		stepDone := s.handleMessage(sess, msg)
		s.m.framesIn.Inc() // after the frame is applied: a barrier
		s.m.bytesIn.Add(uint64(r.FrameSize()))
		s.await(stepDone)
	}
}

// flushRun appends sess.run to the inbox, and archives it, under one mu
// per pass. During a step a pass takes only the reports that bring the
// inbox level with that step (at least one), so the bound stays the
// per-report one of backlog, and the rest waits for the step to end.
// frames_in counts each pass, bytes_in the whole run.
func (s *Server) flushRun(sess *session) {
	for len(sess.run) > 0 {
		s.mu.Lock()
		n := len(sess.run)
		if s.stepDone != nil {
			n = min(n, max(1, s.inflight-len(s.objs)-len(s.qrys)))
		}
		s.objs = append(s.objs, sess.run[:n]...)
		for i := 0; i < n && s.repo != nil; i++ {
			s.persistObjectReport(sess.run[i])
		}
		stepDone := s.backlog()
		s.mu.Unlock()
		s.m.framesIn.Add(uint64(n))
		sess.run = sess.run[:copy(sess.run, sess.run[n:])]
		s.await(stepDone)
	}
	s.m.bytesIn.Add(uint64(sess.runBytes))
	sess.runBytes = 0
}

// await waits on a running step's stepDone (nil: no wait), or until
// Close.
func (s *Server) await(stepDone <-chan struct{}) {
	if stepDone == nil {
		return
	}
	s.m.ingestStalls.Inc()
	select {
	case <-stepDone:
	case <-s.closed:
	}
}

// handleMessage applies one inbound frame other than an object report
// (flushRun ingests those). A query report only joins the inbox; once
// the inbox holds as many reports as the running step evaluates,
// handleMessage returns that step's stepDone, and the read loop waits on
// it before reading the next frame (one step ahead).
func (s *Server) handleMessage(sess *session, msg wire.Message) <-chan struct{} {
	switch msg.(type) {
	case wire.QueryReport, wire.Heartbeat:
	default: // the rest read the processor
		s.stepMu.Lock()
		defer s.stepMu.Unlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch m := msg.(type) {
	case wire.QueryReport:
		s.qrys = append(s.qrys, m.Update)
		if m.Update.Remove {
			delete(s.subs, m.Update.ID)
			if s.repo != nil {
				if err := s.repo.CommitAnswer(m.Update.ID, nil); err != nil {
					s.logger.Printf("server: erase commit: %v", err)
				}
			}
		} else {
			s.subs[m.Update.ID] = sess
		}
		return s.backlog()
	case wire.Commit:
		s.handleCommit(sess, m)
	case wire.Wakeup:
		s.handleWakeup(sess, m)
	case wire.Heartbeat:
		// The client's echo; its arrival alone refreshed the read
		// deadline. The echoed timestamp is the server clock at send
		// time, so now−Time is the full round trip (client processing
		// included). Clamp: an echo can race the clock reading.
		if rtt := s.now() - m.Time; rtt > 0 {
			s.m.rtt.Observe(int64(rtt * 1e9))
		}
	case wire.StatsRequest:
		s.send(sess, wire.StatsResponse{
			Stats:   s.engine.Stats(),
			Objects: uint32(s.engine.NumObjects()),
			Queries: uint32(s.engine.NumQueries()),
			Uptime:  s.now(),
		})
	default:
		s.logger.Printf("server: unexpected message %T from client", msg)
	}
	return nil
}

// backlog returns the running step's stepDone (nil between steps) once
// the inbox is one step ahead of it, and nil before. Caller holds s.mu.
func (s *Server) backlog() <-chan struct{} {
	if len(s.objs)+len(s.qrys) < s.inflight {
		return nil
	}
	return s.stepDone
}

// handleCommit processes a client acknowledgment: commit when the
// checksums agree, heal with a full answer when they do not (the rare
// in-flight-updates race). The client's checksum can only reflect
// completed steps, so pending reports stay pending: evaluating them
// could only force a spurious heal. Caller holds s.stepMu and s.mu.
func (s *Server) handleCommit(sess *session, m wire.Commit) {
	current, ok := s.engine.AnswerChecksum(m.Query)
	if !ok {
		return // unknown query: nothing to commit
	}
	if current != m.Checksum {
		s.sendFullAnswer(sess, m.Query)
		return
	}
	s.engine.Commit(m.Query)
	s.m.commits.Inc()
	s.persistCommit(m.Query)
	s.send(sess, wire.CommitAck{Query: m.Query, Checksum: m.Checksum})
}

// handleWakeup processes an out-of-sync client reconnection against the
// last completed step. Caller holds s.stepMu and s.mu.
func (s *Server) handleWakeup(sess *session, m wire.Wakeup) {
	q := m.Update.ID
	if _, known := s.engine.Answer(q); !known {
		// Server restarted (or never saw the query): re-register from the
		// definition carried by the wakeup, evaluate, and seed the
		// committed answer from the repository if we have one. The
		// session subscribes only after the registration step, so the
		// answer reaches it as the recovery below, not as an update batch.
		s.qrys = append(s.qrys, m.Update)
		s.step()
		if s.repo != nil {
			if committed, ok := s.repo.Committed(q); ok {
				s.engine.SeedCommitted(q, committed)
			}
		}
	}
	s.subs[q] = sess

	committedCk, ok := s.engine.CommittedChecksum(q)
	if !ok {
		// Registration raced with removal; treat as a fresh, empty query.
		s.send(sess, wire.FullAnswer{Query: q, Time: s.now()})
		return
	}
	if committedCk != m.Checksum {
		// The client's rolled-back answer does not match what we committed:
		// fall back to the complete answer (the naive path), which is
		// always correct.
		s.sendFullAnswer(sess, q)
		return
	}
	diff, _ := s.engine.Recover(q)
	s.m.recoveries.Inc()
	s.persistCommit(q)
	s.send(sess, wire.RecoveryDiff{Time: s.now(), Updates: diff})
}

// sendFullAnswer ships the complete current answer and commits it.
// Caller holds s.stepMu and s.mu.
func (s *Server) sendFullAnswer(sess *session, q core.QueryID) {
	answer, ok := s.engine.Answer(q)
	if !ok {
		answer = nil
	}
	s.m.fullAnswers.Inc()
	s.engine.Commit(q)
	s.persistCommit(q)
	s.send(sess, wire.FullAnswer{Query: q, Time: s.now(), Objects: answer})
}

// persistObjectReport archives a location report and keeps the durable
// stationary catalog current. A report the engine will reject changes
// neither. Caller holds s.mu.
func (s *Server) persistObjectReport(u core.ObjectUpdate) {
	switch {
	case u.Remove:
		if _, err := s.repo.DeleteStationary(u.ID); err != nil {
			s.logger.Printf("server: delete stationary: %v", err)
		}
	case !core.AcceptObject(&u, s.maxSpeed):
	case u.Kind == core.Stationary:
		if err := s.repo.PutStationary(u.ID, u.Loc); err != nil {
			s.logger.Printf("server: catalog stationary: %v", err)
		}
	default:
		if err := s.repo.AppendLocation(repository.LocationRecord{
			ID: u.ID, Loc: u.Loc, T: u.T,
		}); err != nil {
			s.logger.Printf("server: archive location: %v", err)
		}
	}
}

// persistCommit mirrors the engine's committed answer into the
// repository. Caller holds s.stepMu.
func (s *Server) persistCommit(q core.QueryID) {
	if s.repo == nil {
		return
	}
	committed, ok := s.engine.CommittedAnswer(q)
	if !ok {
		return
	}
	if err := s.repo.CommitAnswer(q, committed); err != nil {
		s.logger.Printf("server: persist commit: %v", err)
	}
}

// Stats exposes the engine's counters (for monitoring and tests).
func (s *Server) Stats() core.Stats {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.engine.Stats()
}

// Answer returns the engine's current answer for q (for monitoring and
// for tests that compare client state against the server's ground truth).
func (s *Server) Answer(q core.QueryID) ([]core.ObjectID, bool) {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.engine.Answer(q)
}

// NumObjects returns the engine's registered object count.
func (s *Server) NumObjects() int {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.engine.NumObjects()
}

// NumQueries returns the engine's registered query count.
func (s *Server) NumQueries() int {
	s.stepMu.Lock()
	defer s.stepMu.Unlock()
	return s.engine.NumQueries()
}
