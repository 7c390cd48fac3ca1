// Package faultnet injects deterministic, seeded network faults —
// latency, connection resets, partial writes, and bit corruption —
// underneath any net.Conn or net.Listener.
//
// It exists so the server/client connection-lifecycle machinery (write
// backpressure, shed-slow-client, heartbeats, reconnect with backoff,
// and the paper's out-of-sync recovery protocol) can be driven through
// repeatable failure schedules in tests. Every fault decision derives
// from a fixed seed and a per-connection, per-direction operation
// counter — never from wall-clock time — so a given seed always yields
// the same fault sequence for the same sequence of I/O operations.
package faultnet

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Faults configures the fault schedule of an Injector. Probabilities are
// per read/write operation and drawn independently; zero values disable
// the corresponding fault.
type Faults struct {
	// Seed is the base seed; every wrapped connection derives two
	// independent streams (read-side and write-side) from it.
	Seed int64

	// Grace exempts the first Grace operations in each direction of
	// every connection, so handshakes can complete before the weather
	// turns.
	Grace int

	// PDelay delays an operation by a uniform duration in [0, MaxDelay).
	PDelay   float64
	MaxDelay time.Duration

	// PReset closes the connection and fails the operation.
	PReset float64

	// PPartialWrite writes only a prefix of the buffer, then closes the
	// connection — the peer observes a truncated frame.
	PPartialWrite float64

	// PCorrupt flips one bit of the data in transit (on writes the
	// buffer is copied first; callers never see their data mutated).
	PCorrupt float64
}

// ErrInjectedReset is returned by operations the injector chose to fail.
var ErrInjectedReset = errors.New("faultnet: injected connection reset")

// Injector hands out fault-wrapped connections sharing one schedule. It
// is safe for concurrent use.
type Injector struct {
	faults  Faults
	enabled atomic.Bool
	seq     atomic.Uint64
}

// New returns an enabled Injector with the given fault schedule.
func New(f Faults) *Injector {
	in := &Injector{faults: f}
	in.enabled.Store(true)
	return in
}

// Disable turns all fault injection off; wrapped connections become
// transparent. Tests call this to end the storm and let the system
// heal.
func (in *Injector) Disable() { in.enabled.Store(false) }

// Wrap returns c with this injector's fault schedule applied. Each
// wrapped connection draws from its own deterministic streams, derived
// from the base seed and the wrap order.
func (in *Injector) Wrap(c net.Conn) net.Conn {
	n := in.seq.Add(1)
	base := splitmix(uint64(in.faults.Seed) + n*0x9E3779B97F4A7C15)
	return &conn{
		Conn: c,
		in:   in,
		rd:   faultStream{rng: rand.New(rand.NewSource(int64(splitmix(base + 1))))},
		wr:   faultStream{rng: rand.New(rand.NewSource(int64(splitmix(base + 2))))},
	}
}

// Listener wraps ln so every accepted connection is fault-injected.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Wrap(c), nil
}

// fault is the set of faults drawn for one operation.
type fault struct {
	delay    time.Duration
	reset    bool
	partial  bool
	corrupt  bool
	cut, bit int
}

// faultStream is one direction's deterministic fault source. Reads and
// writes use separate streams so concurrent reader/writer goroutines
// cannot perturb each other's schedules.
type faultStream struct {
	mu  sync.Mutex
	rng *rand.Rand
	ops int
}

func (s *faultStream) draw(f Faults, enabled bool) fault {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ops++
	if !enabled || s.ops <= f.Grace {
		return fault{}
	}
	var out fault
	if f.PDelay > 0 && f.MaxDelay > 0 && s.rng.Float64() < f.PDelay {
		out.delay = time.Duration(s.rng.Int63n(int64(f.MaxDelay)))
	}
	if f.PReset > 0 && s.rng.Float64() < f.PReset {
		out.reset = true
		return out
	}
	if f.PPartialWrite > 0 && s.rng.Float64() < f.PPartialWrite {
		out.partial = true
		out.cut = int(s.rng.Int31())
	}
	if f.PCorrupt > 0 && s.rng.Float64() < f.PCorrupt {
		out.corrupt = true
		out.bit = int(s.rng.Int31())
	}
	return out
}

// conn is a fault-injected net.Conn. Like the TCP connections it wraps,
// it tolerates one concurrent reader plus one concurrent writer.
type conn struct {
	net.Conn
	in *Injector
	rd faultStream
	wr faultStream
}

func (c *conn) Read(p []byte) (int, error) {
	f := c.rd.draw(c.in.faults, c.in.enabled.Load())
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.reset {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	n, err := c.Conn.Read(p)
	if f.corrupt && n > 0 {
		flipBit(p[:n], f.bit)
	}
	return n, err
}

func (c *conn) Write(p []byte) (int, error) {
	f := c.wr.draw(c.in.faults, c.in.enabled.Load())
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.reset {
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	if f.partial && len(p) > 1 {
		n, _ := c.Conn.Write(p[:1+f.cut%(len(p)-1)])
		c.Conn.Close()
		return n, ErrInjectedReset
	}
	if f.corrupt && len(p) > 0 {
		q := make([]byte, len(p))
		copy(q, p)
		flipBit(q, f.bit)
		return c.Conn.Write(q)
	}
	return c.Conn.Write(p)
}

func flipBit(b []byte, bit int) {
	bit %= len(b) * 8
	b[bit/8] ^= 1 << (bit % 8)
}

// splitmix advances the SplitMix64 generator; used to derive independent
// per-connection seeds from the base seed.
func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
