package cluster

import (
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"cqp/internal/obs"
	"cqp/internal/wire"
)

// workerSlot manages one worker position: the live connection (if any),
// the heartbeat liveness probe, and the respawn loop that replaces dead
// processes under jittered exponential backoff. Tiles are pinned to
// slots; a slot outlives any number of worker incarnations.
type workerSlot struct {
	id  int
	cl  *Cluster
	rtt *obs.Histogram

	mu      sync.Mutex
	st      *slotConn // nil while the slot is down
	nextInc uint64    // last incarnation spawned

	wg sync.WaitGroup
}

// slotConn is one worker incarnation's connection and its goroutines'
// shared state. Death is a one-way latch: fail() closes down (waking
// every tile blocked on this incarnation) and the connection itself.
type slotConn struct {
	incarnation uint64
	proc        Process
	send        chan wire.Message
	down        chan struct{}
	downOnce    sync.Once
	lastEcho    atomic.Int64 // clock nanos of the last heartbeat echo
}

func (st *slotConn) fail() {
	st.downOnce.Do(func() {
		close(st.down)
		st.proc.Conn().Close()
	})
}

// enqueue hands a frame to the sender goroutine. It never blocks: a
// full queue means the sender is wedged on a stalled link, which is
// treated as death — the frame is dropped and the epoch/resync
// machinery recovers.
func (st *slotConn) enqueue(m wire.Message) bool {
	select {
	case st.send <- m:
		return true
	case <-st.down:
		return false
	default:
		st.fail()
		return false
	}
}

func newWorkerSlot(cl *Cluster, id int) *workerSlot {
	return &workerSlot{id: id, cl: cl, rtt: cl.m.heartbeatRTT(id)}
}

// current returns the live connection, or nil while the slot is down.
func (s *workerSlot) current() *slotConn {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.st == nil {
		return nil
	}
	select {
	case <-s.st.down:
		return nil
	default:
		return s.st
	}
}

// attach installs a freshly spawned process as the slot's live
// connection and starts its sender, heartbeat, and demux goroutines.
func (s *workerSlot) attach(proc Process, inc uint64) *slotConn {
	st := &slotConn{
		incarnation: inc,
		proc:        proc,
		send:        make(chan wire.Message, 256),
		down:        make(chan struct{}),
	}
	st.lastEcho.Store(s.cl.clock())
	s.mu.Lock()
	s.st = st
	s.mu.Unlock()
	conn := proc.Conn()
	s.wg.Add(3)
	go func() {
		defer s.wg.Done()
		sender(st, wire.NewWriter(conn))
	}()
	go func() {
		defer s.wg.Done()
		s.heartbeat(st)
	}()
	go func() {
		defer s.wg.Done()
		s.demux(st, wire.NewReader(conn))
		st.fail()
	}()
	return st
}

// sender is the only goroutine writing the connection; it serializes
// heartbeats, assigns, steps, and resyncs without a lock held across
// I/O. A write error latches death.
func sender(st *slotConn, w *wire.Writer) {
	for {
		select {
		case m := <-st.send:
			if err := w.Write(m); err != nil {
				st.fail()
				return
			}
		case <-st.down:
			return
		}
	}
}

// heartbeat sends a probe every interval and latches death when the
// last echo is older than the timeout. The deadline — not connection
// errors — is what catches stalled links and wedged workers.
func (s *workerSlot) heartbeat(st *slotConn) {
	t := time.NewTicker(s.cl.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			now := s.cl.clock()
			if now-st.lastEcho.Load() > int64(s.cl.cfg.HeartbeatTimeout) {
				st.fail()
				return
			}
			st.enqueue(wire.Heartbeat{Time: float64(now)})
		case <-st.down:
			return
		}
	}
}

// demux is the only goroutine reading the connection: it routes step
// results and resync acks to their tiles and echoes of heartbeats to
// the liveness clock. Any read error — including a cluster-frame
// checksum mismatch from corruption in transit — ends the incarnation.
func (s *workerSlot) demux(st *slotConn, r *wire.Reader) {
	for {
		m, err := r.Read()
		if err != nil {
			return
		}
		switch m := m.(type) {
		case wire.Heartbeat:
			now := s.cl.clock()
			st.lastEcho.Store(now)
			if rtt := now - int64(m.Time); rtt >= 0 {
				s.rtt.Observe(rtt)
			}
		case wire.ClusterStepResult:
			s.cl.deliverResult(m)
		case wire.ClusterResyncAck:
			s.cl.deliverAck(m)
		default:
			return // protocol violation: burn the incarnation
		}
	}
}

// run is the slot's lifecycle loop: wait for the current incarnation to
// die, reap it, respawn with jittered exponential backoff, repeat. It
// owns the Process handles; nothing else kills or waits on them.
func (s *workerSlot) run(st *slotConn) {
	defer s.wg.Done()
	rng := rand.New(rand.NewSource(s.cl.cfg.Seed + int64(s.id)*7919))
	attempt := 0
	for {
		if st != nil {
			<-st.down
			st.proc.Kill()
			st.proc.Wait()
			s.mu.Lock()
			if s.st == st {
				s.st = nil
			}
			s.mu.Unlock()
			st = nil
			if s.cl.stopped() {
				return
			}
			s.cl.m.restarts.Inc()
			attempt++
			if !s.cl.sleep(s.backoff(attempt, rng)) {
				return
			}
		}
		if s.cl.stopped() {
			return
		}
		s.mu.Lock()
		s.nextInc++
		inc := s.nextInc
		s.mu.Unlock()
		p, err := s.cl.cfg.Spawner.Spawn(s.id, inc)
		if err != nil {
			attempt++
			if !s.cl.sleep(s.backoff(attempt, rng)) {
				return
			}
			continue
		}
		attempt = 0
		st = s.attach(p, inc)
	}
}

// close fails the live incarnation, if any; the run loop reaps it and,
// with the cluster stopped, exits.
func (s *workerSlot) close() {
	s.mu.Lock()
	st := s.st
	s.mu.Unlock()
	if st != nil {
		st.fail()
	}
}

// backoff returns the jittered delay preceding respawn attempt n
// (1-based), the same shape internal/client uses for reconnection.
func (s *workerSlot) backoff(attempt int, rng *rand.Rand) time.Duration {
	b := s.cl.cfg.Backoff
	d := float64(b.Initial) * math.Pow(b.Multiplier, float64(attempt-1))
	if ceil := float64(b.Max); d > ceil {
		d = ceil
	}
	if b.Jitter > 0 {
		d *= 1 + b.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}
