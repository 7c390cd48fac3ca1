package server

import (
	"net"
	"testing"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/wire"
)

// smallBufListener shrinks each accepted connection's kernel write
// buffer so a non-reading peer backs the session writer up after a few
// KB instead of after hundreds — the lever that makes outbox overflow
// deterministic in TestSessionChurnAndShedReconcile.
type smallBufListener struct{ net.Listener }

func (l smallBufListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if tc, ok := c.(*net.TCPConn); err == nil && ok {
		tc.SetWriteBuffer(2048)
	}
	return c, err
}

// TestSessionChurnAndShedReconcile cycles sessions rapidly — connect,
// subscribe, disconnect — then wedges a non-reading subscriber until
// the server sheds it, and checks that the session accounting closes
// exactly: sessions_total counts every dial, sheds counts exactly the
// wedged client, and the live-session gauge returns to zero. A scrape
// loop snapshots the registry throughout, so the race detector sees the
// derived session gauges read the server's tables during the churn. The
// package's leakcheck TestMain turns any writer/reader goroutine left
// behind by the churn into a failure.
func TestSessionChurnAndShedReconcile(t *testing.T) {
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	s := startServer(t, Config{
		Listener:   smallBufListener{inner},
		OutboxSize: 1,
		Metrics:    reg,
	})
	addr := s.Addr().String()
	total := reg.Counter("server.sessions_total")
	sheds := reg.Counter("server.sheds")
	stopScrape, scrapeDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scrapeDone)
		for {
			select {
			case <-stopScrape:
				return
			case <-time.After(100 * time.Microsecond):
				reg.Snapshot()
			}
		}
	}()
	defer func() { close(stopScrape); <-scrapeDone }()

	// Phase 1: rapid churn. Each cycle is a full session lifecycle.
	const churn = 15
	for i := 0; i < churn; i++ {
		c, err := client.Dial(addr)
		if err != nil {
			t.Fatalf("churn dial %d: %v", i, err)
		}
		if err := c.RegisterQuery(core.QueryUpdate{ID: core.QueryID(100 + i), Kind: core.Range, Region: geo.R(0, 0, 1, 1)}); err != nil {
			t.Fatalf("churn register %d: %v", i, err)
		}
		if err := c.ReportObject(core.ObjectUpdate{ID: core.ObjectID(1000 + i), Kind: core.Moving, Loc: geo.Pt(5, 5)}); err != nil {
			t.Fatalf("churn report %d: %v", i, err)
		}
		if err := c.Close(); err != nil {
			t.Fatalf("churn close %d: %v", i, err)
		}
	}

	// Phase 2: a healthy reporter plus a wedged subscriber. The wedged
	// peer registers a query covering the whole space and never reads;
	// its socket buffers are tiny on both sides, so bulk update frames
	// wedge the session writer and the size-1 outbox overflows.
	reporter, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer reporter.Close()

	wedged, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer wedged.Close()
	if tc, ok := wedged.(*net.TCPConn); ok {
		tc.SetReadBuffer(2048)
	}
	ww := wire.NewWriter(wedged)
	if err := ww.Write(wire.QueryReport{Update: core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 5.5, 5.5)}}); err != nil {
		t.Fatal(err)
	}

	// Toggle a population across the query boundary until the overflow
	// sheds the wedged session. Each evaluation streams one bulk frame
	// of ~500 updates, several KB — enough to fill the shrunken socket
	// buffers within a few rounds.
	const flock = 500
	shedSeen := false
	for round := 0; round < 200 && !shedSeen; round++ {
		// Alternate between inside the region and outside it (but
		// inside the space), so every object flips membership — and
		// produces an update — every round.
		loc := geo.Pt(5, 5)
		if round%2 == 1 {
			loc = geo.Pt(9.9, 9.9)
		}
		for i := 0; i < flock; i++ {
			if err := reporter.ReportObject(core.ObjectUpdate{ID: core.ObjectID(5000 + i), Kind: core.Moving, Loc: loc}); err != nil {
				t.Fatalf("round %d report: %v", round, err)
			}
		}
		s.Evaluate()
		shedSeen = sheds.Value() > 0
		time.Sleep(2 * time.Millisecond)
	}
	if !shedSeen {
		t.Fatal("wedged session was never shed")
	}

	// Exact reconciliation: every dial was counted, exactly one session
	// was shed, and once the survivors close, the gauge drains to zero.
	if got := sheds.Value(); got != 1 {
		t.Errorf("sheds = %d, want exactly 1", got)
	}
	wantTotal := uint64(churn + 2) // churn cycles + reporter + wedged
	if got := total.Value(); got != wantTotal {
		t.Errorf("sessions_total = %d, want %d", got, wantTotal)
	}
	if err := reporter.Close(); err != nil {
		t.Fatal(err)
	}
	wedged.Close()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Flatten()["server.sessions"] != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("sessions gauge stuck at %v, want 0", reg.Flatten()["server.sessions"])
		}
		time.Sleep(5 * time.Millisecond)
	}
}
