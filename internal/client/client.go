// Package client is the subscriber-side library for the location-aware
// server. It maintains, per continuous query, the incrementally
// reconstructed answer and the committed snapshot that powers out-of-sync
// recovery: on reconnection the client rolls its answers back to the last
// commit point and asks the server for the committed→current diff,
// receiving the complete answer only when the checksum handshake detects
// divergence.
//
// With Options.AutoReconnect the client treats a dead connection as the
// paper's out-of-sync condition: it redials with jittered exponential
// backoff and resumes through the wakeup recovery path, with no
// application involvement beyond observing the events.
package client

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"sort"
	"sync"
	"time"

	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/wire"
)

// EventKind classifies events delivered on the Events channel.
type EventKind uint8

const (
	// EventUpdates is a routine incremental batch.
	EventUpdates EventKind = iota + 1
	// EventRecovered is the incremental diff that completed a recovery.
	EventRecovered
	// EventFullAnswer is a complete answer (recovery fallback).
	EventFullAnswer
	// EventDisconnected reports that the connection died; the client may
	// Reconnect (or, with AutoReconnect, is already retrying).
	EventDisconnected
	// EventCommitted acknowledges a Commit: the server's committed answer
	// now equals the client's snapshot.
	EventCommitted
	// EventStats answers a RequestStats call.
	EventStats
	// EventReconnectFailed reports that automatic reconnection exhausted
	// RetryPolicy.MaxAttempts; the client stays disconnected until a
	// manual Reconnect.
	EventReconnectFailed
)

// Event is one notification from the read loop. After the event has been
// delivered the answers visible through Answer already reflect it.
type Event struct {
	Kind    EventKind
	Time    float64
	Updates []core.Update // EventUpdates, EventRecovered
	Query   core.QueryID  // EventFullAnswer
	Err     error         // EventDisconnected, EventReconnectFailed

	// Stats carries the server statistics of an EventStats.
	Stats *ServerStats
}

// ServerStats is the server-side view returned by RequestStats.
type ServerStats struct {
	Stats   core.Stats
	Objects int
	Queries int
	Uptime  float64
}

// RetryPolicy shapes the jittered exponential backoff of automatic
// reconnection. The zero value picks the defaults noted per field.
type RetryPolicy struct {
	InitialBackoff time.Duration // delay before the first retry (default 100ms)
	MaxBackoff     time.Duration // backoff ceiling (default 5s)
	Multiplier     float64       // backoff growth factor (default 2)
	Jitter         float64       // ± fraction applied to each delay (default 0.2)
	MaxAttempts    int           // give up after this many attempts (default 0 = never)
	Seed           int64         // jitter randomness seed (default 1), fixed for reproducible tests
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.InitialBackoff <= 0 {
		p.InitialBackoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Second
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 2
	}
	if p.Jitter <= 0 {
		p.Jitter = 0.2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
	return p
}

// backoff returns the jittered delay preceding reconnect attempt n
// (1-based).
func (p RetryPolicy) backoff(attempt int, rng *rand.Rand) time.Duration {
	d := float64(p.InitialBackoff) * math.Pow(p.Multiplier, float64(attempt-1))
	if ceil := float64(p.MaxBackoff); d > ceil {
		d = ceil
	}
	if p.Jitter > 0 {
		d *= 1 + p.Jitter*(2*rng.Float64()-1)
	}
	return time.Duration(d)
}

// Options parameterizes DialOptions. The zero value reproduces Dial's
// behavior: plain TCP, no automatic reconnection, no read deadline.
type Options struct {
	// Dialer overrides how connections are established (fault injection,
	// proxies, in-memory transports). Defaults to a plain TCP dial.
	Dialer func(addr string) (net.Conn, error)

	// AutoReconnect redials after a lost connection using Retry, resuming
	// through the out-of-sync wakeup protocol.
	AutoReconnect bool

	// Retry shapes AutoReconnect's backoff.
	Retry RetryPolicy

	// ReadTimeout is the per-message read deadline; a server silent for
	// longer counts as disconnected. Zero disables the deadline. When
	// set it should comfortably exceed the server's heartbeat interval.
	ReadTimeout time.Duration

	// Metrics, when non-nil, registers the client's frame and
	// reconnection counters in the given registry.
	Metrics *obs.Registry

	// OnApplied, when non-nil, is invoked from the read loop immediately
	// after a batch of incremental updates (EventUpdates or
	// EventRecovered) has been folded into the local answers, before the
	// corresponding event is delivered. Load harnesses use it to stamp
	// delivery latency without racing the Events consumer. The callback
	// runs without the client lock held but must be fast: it blocks the
	// read loop.
	OnApplied func(updates []core.Update)
}

// ErrClosed is returned by operations on a Close()d client.
var ErrClosed = errors.New("client: use of closed client")

// queryView is the client-side state of one continuous query.
type queryView struct {
	def      core.QueryUpdate
	answer   map[core.ObjectID]struct{}
	snapshot map[core.ObjectID]struct{} // state at the last commit point
}

// Client is a connection to the location-aware server. All methods are
// safe for concurrent use.
type Client struct {
	addr string
	opts Options
	dial func(addr string) (net.Conn, error)
	m    *clientMetrics

	mu      sync.Mutex
	conn    net.Conn
	w       *wire.Writer
	queries map[core.QueryID]*queryView
	rng     *rand.Rand // backoff jitter; guarded by mu

	events   chan Event
	wg       sync.WaitGroup
	retryWG  sync.WaitGroup
	closed   bool
	closedCh chan struct{}
}

// writeTimeout bounds one frame write, as the server's
// DefaultWriteTimeout bounds its own: a server that stops reading fails
// the write instead of wedging every caller waiting on c.mu.
var writeTimeout = 5 * time.Second

// send builds and writes one frame under c.mu, so frames go out in the
// order of the state changes they reflect. A failed write closes the
// connection, as the writer keeps the error: the read loop reports it.
func (c *Client) send(build func() (wire.Message, error)) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, err := build()
	if err != nil {
		return err
	}
	c.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	//lint:allow locksend c.mu orders frames like the state they reflect; the write deadline set above bounds how long a stalled server can hold it
	if err = c.w.Write(m); err != nil {
		c.conn.Close()
		return err
	}
	c.m.framesOut.Inc()
	return nil
}

// Dial connects to a server with default options.
func Dial(addr string) (*Client, error) { return DialOptions(addr, Options{}) }

// DialOptions connects to a server with explicit lifecycle options.
func DialOptions(addr string, opts Options) (*Client, error) {
	opts.Retry = opts.Retry.withDefaults()
	dial := opts.Dialer
	if dial == nil {
		dial = func(a string) (net.Conn, error) { return net.Dial("tcp", a) }
	}
	conn, err := dial(addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial: %w", err)
	}
	c := &Client{
		addr:     addr,
		opts:     opts,
		dial:     dial,
		m:        newClientMetrics(opts.Metrics),
		conn:     conn,
		w:        wire.NewWriter(conn),
		queries:  make(map[core.QueryID]*queryView),
		rng:      rand.New(rand.NewSource(opts.Retry.Seed)),
		events:   make(chan Event, 64),
		closedCh: make(chan struct{}),
	}
	c.wg.Add(1)
	go c.readLoop(conn)
	return c, nil
}

// Events returns the notification channel. It is closed by Close. Slow
// consumers block the read loop, applying natural backpressure.
func (c *Client) Events() <-chan Event { return c.events }

// Close tears the connection down, stops any pending automatic
// reconnection, and closes the Events channel.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	conn := c.conn
	close(c.closedCh)
	c.mu.Unlock()
	err := conn.Close()
	c.wg.Wait()
	c.retryWG.Wait()
	close(c.events)
	return err
}

// ReportObject sends an object report.
func (c *Client) ReportObject(u core.ObjectUpdate) error {
	return c.send(func() (wire.Message, error) { return wire.ObjectReport{Update: u}, nil })
}

// RegisterQuery registers (or moves) a continuous query and subscribes
// this connection to its updates. Mirroring the server's implicit commit
// on hearing from a query, the current answer becomes the client's commit
// snapshot; a kind change first empties the answer, as the server does.
func (c *Client) RegisterQuery(u core.QueryUpdate) error {
	if u.Remove {
		return c.RemoveQuery(u.ID)
	}
	return c.send(func() (wire.Message, error) {
		v, ok := c.queries[u.ID]
		if !ok {
			v = &queryView{
				answer:   make(map[core.ObjectID]struct{}),
				snapshot: make(map[core.ObjectID]struct{}),
			}
			c.queries[u.ID] = v
		} else if v.def.Kind != u.Kind {
			// A kind change re-registers the query: the server tears the old
			// one down silently and streams the new answer from empty.
			clear(v.answer)
		}
		v.def = u
		v.snapshot = copySet(v.answer)
		return wire.QueryReport{Update: u}, nil
	})
}

// RemoveQuery deregisters a query.
func (c *Client) RemoveQuery(id core.QueryID) error {
	return c.send(func() (wire.Message, error) {
		delete(c.queries, id)
		return wire.QueryReport{Update: core.QueryUpdate{ID: id, Remove: true}}, nil
	})
}

// Commit acknowledges the stream of query q: the current answer becomes
// the commit snapshot locally and, checksum permitting, the committed
// answer on the server. Stationary queries call this periodically (the
// paper's explicit commit messages); moving queries commit implicitly by
// reporting.
func (c *Client) Commit(q core.QueryID) error {
	return c.send(func() (wire.Message, error) {
		v, ok := c.queries[q]
		if !ok {
			return nil, fmt.Errorf("client: commit of unknown query %d", q)
		}
		v.snapshot = copySet(v.answer)
		return wire.Commit{Query: q, Checksum: checksumSet(v.answer)}, nil
	})
}

// Answer returns the current answer of q in ascending order, or ok=false
// for an unknown query.
func (c *Client) Answer(q core.QueryID) ([]core.ObjectID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.queries[q]
	if !ok {
		return nil, false
	}
	out := make([]core.ObjectID, 0, len(v.answer))
	for id := range v.answer {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, true
}

// RequestStats asks the server for its statistics; the response arrives
// as an EventStats on the Events channel.
func (c *Client) RequestStats() error {
	return c.send(func() (wire.Message, error) { return wire.StatsRequest{}, nil })
}

// Drop severs the connection without closing the client, simulating the
// battery or signal loss of the paper's out-of-sync clients: updates the
// server emits while dropped are lost. The read loop emits
// EventDisconnected; call Reconnect to resynchronize (with AutoReconnect
// the client resynchronizes by itself).
func (c *Client) Drop() error {
	c.mu.Lock()
	conn := c.conn
	c.mu.Unlock()
	return conn.Close()
}

// Reconnect dials addr again after a disconnection and runs the
// out-of-sync recovery protocol for every registered query: each answer
// is rolled back to its commit snapshot and a wakeup (carrying the query
// definition and the snapshot checksum) is sent. The server responds with
// either an incremental recovery diff or a full answer; both arrive as
// events and leave the answers synchronized.
func (c *Client) Reconnect(addr string) error {
	conn, err := c.dial(addr)
	if err != nil {
		return fmt.Errorf("client: reconnect: %w", err)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		conn.Close()
		return ErrClosed
	}
	c.conn.Close() // stop any stale read loop
	c.conn = conn
	c.w = wire.NewWriter(conn)

	type wakeup struct{ m wire.Wakeup }
	var wakeups []wakeup
	for _, v := range c.queries {
		v.answer = copySet(v.snapshot) // roll back to the commit point
		wakeups = append(wakeups, wakeup{wire.Wakeup{
			Update:   v.def,
			Checksum: checksumSet(v.snapshot),
		}})
	}
	for _, wk := range wakeups {
		conn.SetWriteDeadline(time.Now().Add(writeTimeout))
		if err := c.w.Write(wk.m); err != nil {
			c.mu.Unlock()
			conn.Close() // no read loop runs on it; the next Reconnect replaces it
			return fmt.Errorf("client: send wakeup: %w", err)
		}
		c.m.framesOut.Inc()
	}
	c.mu.Unlock()
	c.m.reconnects.Inc()

	c.wg.Wait() // ensure the old read loop has fully exited
	c.wg.Add(1)
	go c.readLoop(conn)
	return nil
}

// reconnectLoop retries Reconnect with jittered exponential backoff until
// it succeeds, the client is closed, or MaxAttempts is exhausted. At most
// one reconnectLoop runs at a time: it is only spawned by a dying read
// loop, and a new read loop only exists once reconnection succeeded.
func (c *Client) reconnectLoop() {
	defer c.retryWG.Done()
	p := c.opts.Retry
	var lastErr error
	for attempt := 1; p.MaxAttempts == 0 || attempt <= p.MaxAttempts; attempt++ {
		c.mu.Lock()
		d := p.backoff(attempt, c.rng)
		c.mu.Unlock()
		select {
		case <-c.closedCh:
			return
		case <-time.After(d):
		}
		err := c.Reconnect(c.addr)
		if err == nil {
			return
		}
		if errors.Is(err, ErrClosed) {
			return
		}
		lastErr = err
	}
	c.m.reconnectFailures.Inc()
	c.events <- Event{Kind: EventReconnectFailed, Err: lastErr}
}

func (c *Client) readLoop(conn net.Conn) {
	defer c.wg.Done()
	r := wire.NewReader(conn)
	for {
		if c.opts.ReadTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(c.opts.ReadTimeout))
		}
		msg, err := r.Read()
		if err != nil {
			c.mu.Lock()
			closed := c.closed
			stale := c.conn != conn
			c.mu.Unlock()
			if closed || stale {
				return
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				err = nil
			}
			c.m.disconnects.Inc()
			if c.opts.AutoReconnect {
				c.retryWG.Add(1)
				go c.reconnectLoop()
			}
			c.events <- Event{Kind: EventDisconnected, Err: err}
			return
		}
		c.m.framesIn.Inc()
		c.apply(msg)
	}
}

// apply integrates a server message into the local answers and emits the
// corresponding event.
func (c *Client) apply(msg wire.Message) {
	c.mu.Lock()
	var ev Event
	switch m := msg.(type) {
	case wire.UpdateBatch:
		c.applyUpdates(m.Updates)
		ev = Event{Kind: EventUpdates, Time: m.Time, Updates: m.Updates}
	case wire.RecoveryDiff:
		c.applyUpdates(m.Updates)
		// Recovery commits on the server; mirror it for the queries the
		// diff touched (untouched queries already satisfy answer ==
		// snapshot, since they were rolled back at reconnect).
		for _, u := range m.Updates {
			if v, ok := c.queries[u.Query]; ok {
				v.snapshot = copySet(v.answer)
			}
		}
		ev = Event{Kind: EventRecovered, Time: m.Time, Updates: m.Updates}
	case wire.FullAnswer:
		v, ok := c.queries[m.Query]
		if ok {
			v.answer = make(map[core.ObjectID]struct{}, len(m.Objects))
			for _, id := range m.Objects {
				v.answer[id] = struct{}{}
			}
			v.snapshot = copySet(v.answer)
		}
		ev = Event{Kind: EventFullAnswer, Time: m.Time, Query: m.Query}
	case wire.CommitAck:
		ev = Event{Kind: EventCommitted, Query: m.Query}
	case wire.Heartbeat:
		c.mu.Unlock()
		// Echo so the server's read deadline sees a live peer; invisible
		// to the application. A write failure here is the read loop's
		// problem to notice.
		c.send(func() (wire.Message, error) { return wire.Heartbeat{Time: m.Time}, nil })
		return
	case wire.StatsResponse:
		ev = Event{Kind: EventStats, Time: m.Uptime, Stats: &ServerStats{
			Stats:   m.Stats,
			Objects: int(m.Objects),
			Queries: int(m.Queries),
			Uptime:  m.Uptime,
		}}
	default:
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	if c.opts.OnApplied != nil && (ev.Kind == EventUpdates || ev.Kind == EventRecovered) {
		c.opts.OnApplied(ev.Updates)
	}
	c.events <- ev
}

func (c *Client) applyUpdates(updates []core.Update) {
	c.m.updatesApplied.Add(uint64(len(updates)))
	for _, u := range updates {
		v, ok := c.queries[u.Query]
		if !ok {
			continue
		}
		if u.Positive {
			v.answer[u.Object] = struct{}{}
		} else {
			delete(v.answer, u.Object)
		}
	}
}

func copySet(s map[core.ObjectID]struct{}) map[core.ObjectID]struct{} {
	out := make(map[core.ObjectID]struct{}, len(s))
	for k := range s {
		out[k] = struct{}{}
	}
	return out
}

func checksumSet(s map[core.ObjectID]struct{}) uint64 {
	ids := make([]core.ObjectID, 0, len(s))
	for id := range s {
		ids = append(ids, id)
	}
	return core.ChecksumIDs(ids)
}
