package client

import (
	"net"
	"testing"
	"time"

	"cqp/internal/core"
)

// TestWriteDeadline pins that a server which stops reading cannot wedge
// the client: the stalled write fails at its deadline, releasing c.mu,
// so a concurrent Answer returns instead of blocking forever, and the
// failed write closes the connection, so the client reports the
// disconnection instead of failing every later call.
func TestWriteDeadline(t *testing.T) {
	defer func(d time.Duration) { writeTimeout = d }(writeTimeout)
	writeTimeout = 100 * time.Millisecond
	var peer net.Conn // never read
	c, err := DialOptions("pipe", Options{Dialer: func(string) (net.Conn, error) {
		conn, p := net.Pipe()
		peer = p
		return conn, nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer peer.Close() // releases a write that never times out

	reported := make(chan error, 1)
	go func() { reported <- c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving}) }()
	answered := make(chan struct{})
	go func() {
		// Most likely behind the stalled report; if Answer wins c.mu
		// instead, the report's own guard below still decides.
		time.Sleep(writeTimeout / 4)
		c.Answer(1)
		close(answered)
	}()
	guard := time.After(writeTimeout + 2*time.Second)
	select {
	case <-answered:
	case <-guard:
		t.Fatal("Answer blocked behind a write to a peer that never reads")
	}
	select {
	case err := <-reported:
		if err == nil {
			t.Fatal("ReportObject to a peer that never reads succeeded")
		}
	case <-guard:
		t.Fatal("ReportObject blocked past its write deadline")
	}
	for {
		select {
		case ev := <-c.Events():
			if ev.Kind == EventDisconnected {
				return
			}
		case <-guard:
			t.Fatal("no EventDisconnected after a write timed out")
		}
	}
}
