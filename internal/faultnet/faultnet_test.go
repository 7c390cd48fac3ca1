package faultnet

import (
	"bytes"
	"errors"
	"io"
	"math/bits"
	"net"
	"testing"
	"time"
)

// pipePair returns both ends of an in-memory connection with the client
// side wrapped by the injector.
func pipePair(in *Injector) (faulty, peer net.Conn) {
	a, b := net.Pipe()
	return in.Wrap(a), b
}

func TestDeterministicSchedule(t *testing.T) {
	// Two injectors with the same seed must produce identical fault
	// decisions for identical operation sequences.
	run := func() []bool {
		in := New(Faults{Seed: 7, PReset: 0.3})
		c := in.Wrap(nopConn{}).(*conn)
		var resets []bool
		for i := 0; i < 64; i++ {
			f := c.wr.draw(in.faults, true)
			resets = append(resets, f.reset)
		}
		return resets
	}
	a, b := run(), run()
	anyReset := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at op %d", i)
		}
		anyReset = anyReset || a[i]
	}
	if !anyReset {
		t.Fatal("PReset=0.3 over 64 ops drew no reset")
	}
}

func TestGraceAndDisable(t *testing.T) {
	in := New(Faults{Seed: 1, Grace: 5, PReset: 1})
	c := in.Wrap(nopConn{}).(*conn)
	for i := 0; i < 5; i++ {
		if f := c.wr.draw(in.faults, in.enabled.Load()); f.reset {
			t.Fatalf("fault during grace period at op %d", i)
		}
	}
	if f := c.wr.draw(in.faults, in.enabled.Load()); !f.reset {
		t.Fatal("PReset=1 after grace must reset")
	}
	in.Disable()
	if f := c.wr.draw(in.faults, in.enabled.Load()); f.reset {
		t.Fatal("disabled injector must be transparent")
	}
}

func TestInjectedReset(t *testing.T) {
	in := New(Faults{Seed: 1, PReset: 1})
	faulty, peer := pipePair(in)
	defer peer.Close()
	if _, err := faulty.Write([]byte("hello")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("write err = %v", err)
	}
	// The underlying conn was closed: the peer sees EOF.
	peer.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("peer read after reset should fail")
	}
	// Reads draw from a stream of their own, and reset alike.
	faulty, peer = pipePair(in)
	defer peer.Close()
	if _, err := faulty.Read(make([]byte, 1)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("read err = %v", err)
	}
}

func TestPartialWriteTruncates(t *testing.T) {
	in := New(Faults{Seed: 3, PPartialWrite: 1})
	faulty, peer := pipePair(in)
	msg := bytes.Repeat([]byte{0xAB}, 100)
	got := make(chan int, 1)
	go func() {
		buf, _ := io.ReadAll(peer)
		got <- len(buf)
	}()
	n, err := faulty.Write(msg)
	if !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("partial write err = %v", err)
	}
	if n >= len(msg) || n < 0 {
		t.Fatalf("partial write wrote %d of %d", n, len(msg))
	}
	if delivered := <-got; delivered >= len(msg) {
		t.Fatalf("peer received %d bytes, want a truncated prefix", delivered)
	}
}

func TestCorruptionFlipsExactlyOneBit(t *testing.T) {
	in := New(Faults{Seed: 5, PCorrupt: 1, Grace: 0})
	faulty, peer := pipePair(in)
	defer faulty.Close()
	defer peer.Close()
	msg := bytes.Repeat([]byte{0x00}, 32)
	go faulty.Write(msg)
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(peer, buf); err != nil {
		t.Fatal(err)
	}
	if bits := onesCount(buf); bits != 1 {
		t.Fatalf("corruption flipped %d bits, want 1", bits)
	}
	// The caller's buffer must be untouched.
	if !bytes.Equal(msg, bytes.Repeat([]byte{0x00}, 32)) {
		t.Fatal("writer's buffer was mutated")
	}
	// A corrupted read flips one bit of what arrived.
	go peer.Write(msg)
	if _, err := io.ReadFull(faulty, buf); err != nil {
		t.Fatal(err)
	}
	if bits := onesCount(buf); bits != 1 {
		t.Fatalf("read corruption flipped %d bits, want 1", bits)
	}
}

func onesCount(buf []byte) (n int) {
	for _, b := range buf {
		n += bits.OnesCount8(b)
	}
	return n
}

func TestListenerWrapsAcceptedConns(t *testing.T) {
	in := New(Faults{Seed: 9, PReset: 1})
	base, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := in.Listener(base)
	defer ln.Close()
	done := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			done <- err
			return
		}
		defer c.Close()
		_, err = c.Write([]byte("x"))
		done <- err
	}()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if err := <-done; !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("accepted conn write err = %v", err)
	}
}

// nopConn satisfies net.Conn for schedule-only tests.
type nopConn struct{}

func (nopConn) Read(p []byte) (int, error)       { return 0, io.EOF }
func (nopConn) Write(p []byte) (int, error)      { return len(p), nil }
func (nopConn) Close() error                     { return nil }
func (nopConn) LocalAddr() net.Addr              { return nil }
func (nopConn) RemoteAddr() net.Addr             { return nil }
func (nopConn) SetDeadline(time.Time) error      { return nil }
func (nopConn) SetReadDeadline(time.Time) error  { return nil }
func (nopConn) SetWriteDeadline(time.Time) error { return nil }
