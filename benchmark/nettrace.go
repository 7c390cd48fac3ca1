package main

import (
	"encoding/binary"
	"net"
	"sync"
	"time"

	"cqp/internal/wire"
)

// frameEvent is one wire frame as seen passing through a connection:
// when the I/O call carrying its first byte began and when the call
// carrying its last byte returned.
type frameEvent struct {
	typ        wire.MsgType
	size       int // header included
	begin, end time.Time
}

// frameScanner follows one direction of a connection's byte stream and
// finds the frame boundaries in it, using only the framing the wire
// package documents: uint32 payload length, uint8 message type, payload.
// I/O calls split frames arbitrarily (bufio on both ends), so it keeps
// the partial header and the bytes still owed to the current frame.
type frameScanner struct {
	header  [5]byte
	have    int // header bytes collected
	remain  int // payload bytes still to come
	cur     frameEvent
	onFrame func(frameEvent)
}

// feed accounts for the bytes one I/O call moved.
func (s *frameScanner) feed(b []byte, begin, end time.Time) {
	for len(b) > 0 {
		if s.have < len(s.header) {
			if s.have == 0 {
				s.cur = frameEvent{begin: begin}
			}
			n := copy(s.header[s.have:], b)
			s.have += n
			b = b[n:]
			if s.have < len(s.header) {
				return
			}
			s.remain = int(binary.LittleEndian.Uint32(s.header[:4]))
			s.cur.typ = wire.MsgType(s.header[4])
			s.cur.size = len(s.header) + s.remain
		}
		n := min(s.remain, len(b))
		s.remain -= n
		b = b[n:]
		if s.remain == 0 {
			s.cur.end = end
			s.onFrame(s.cur)
			s.have = 0
		}
	}
}

// connStats is what a traced connection saw in one direction.
type connStats struct {
	mu     sync.Mutex
	bytes  int64
	frames []frameEvent // update batches only: the frames the latency budget follows
}

func (c *connStats) record(ev frameEvent) {
	if ev.typ == wire.MsgUpdateBatch {
		c.frames = append(c.frames, ev)
	}
}

// tracedConn times one direction's I/O calls of a connection and scans
// the frames in them. The server side traces writes (time for bytes to
// leave the session writer); the subscriber side traces reads (when a
// batch has fully arrived).
type tracedConn struct {
	net.Conn
	reads, writes *connStats
	rscan, wscan  frameScanner
}

func newTracedConn(c net.Conn) *tracedConn {
	t := &tracedConn{Conn: c, reads: &connStats{}, writes: &connStats{}}
	t.rscan.onFrame = t.reads.record
	t.wscan.onFrame = t.writes.record
	return t
}

func (t *tracedConn) Read(b []byte) (int, error) {
	begin := time.Now()
	n, err := t.Conn.Read(b)
	if n > 0 {
		end := time.Now()
		t.reads.mu.Lock()
		t.reads.bytes += int64(n)
		t.rscan.feed(b[:n], begin, end)
		t.reads.mu.Unlock()
	}
	return n, err
}

func (t *tracedConn) Write(b []byte) (int, error) {
	begin := time.Now()
	n, err := t.Conn.Write(b)
	if n > 0 {
		end := time.Now()
		t.writes.mu.Lock()
		t.writes.bytes += int64(n)
		t.wscan.feed(b[:n], begin, end)
		t.writes.mu.Unlock()
	}
	return n, err
}

// tracedListener wraps every accepted connection in a tracedConn and
// remembers them by the peer's address.
type tracedListener struct {
	net.Listener
	mu    sync.Mutex
	conns map[string]*tracedConn // by remote address
}

func newTracedListener(l net.Listener) *tracedListener {
	return &tracedListener{Listener: l, conns: make(map[string]*tracedConn)}
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	t := newTracedConn(c)
	l.mu.Lock()
	l.conns[c.RemoteAddr().String()] = t
	l.mu.Unlock()
	return t, nil
}

// peer returns the server-side connection whose client end is local.
func (l *tracedListener) peer(local net.Addr) *tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conns[local.String()]
}

// all returns every accepted connection.
func (l *tracedListener) all() []*tracedConn {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*tracedConn, 0, len(l.conns))
	for _, c := range l.conns {
		out = append(out, c)
	}
	return out
}
