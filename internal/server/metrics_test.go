package server

import (
	"testing"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
)

// TestServerMetricsObserveTraffic wires a registry into a live server
// and checks its counters against traffic the test can observe on both
// sides of the wire: a client registry counts its own frames, the
// server registry counts the mirror image.
func TestServerMetricsObserveTraffic(t *testing.T) {
	sreg := obs.NewRegistry()
	s := startServer(t, Config{Metrics: sreg})

	creg := obs.NewRegistry()
	c, err := client.DialOptions(s.Addr().String(), client.Options{Metrics: creg})
	if err != nil {
		t.Fatal(err)
	}

	if err := c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(3, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(2, 2, 4, 4)}); err != nil {
		t.Fatal(err)
	}
	evaluateUntil(t, s, func() bool { return s.NumObjects() == 1 && s.NumQueries() == 1 })
	waitEvent(t, c, client.EventUpdates)

	if got := sreg.Gauge("server.sessions").Value(); got != 1 {
		t.Errorf("server.sessions = %d, want 1", got)
	}
	if got := sreg.Counter("server.sessions_total").Value(); got != 1 {
		t.Errorf("server.sessions_total = %d, want 1", got)
	}
	if got := sreg.Gauge("server.subscriptions").Value(); got != 1 {
		t.Errorf("server.subscriptions = %d, want 1", got)
	}
	if got := sreg.Counter("server.evaluations").Value(); got == 0 {
		t.Error("server.evaluations = 0 after Evaluate calls")
	}
	if got := sreg.Counter("server.updates.streamed").Value(); got == 0 {
		t.Error("server.updates.streamed = 0 after a delivered positive update")
	}
	if got := sreg.Counter("server.bytes_in").Value(); got == 0 {
		t.Error("server.bytes_in = 0 after inbound frames")
	}
	// The writer adds its byte count only after Flush returns, which can
	// be after the client has already read the frame: poll, don't assert.
	bytesOutDeadline := time.After(5 * time.Second)
	for sreg.Counter("server.bytes_out").Value() == 0 {
		select {
		case <-bytesOutDeadline:
			t.Fatal("server.bytes_out = 0 after outbound frames")
		case <-time.After(5 * time.Millisecond):
		}
	}
	// The engine metrics share the registry when Config.Metrics is set.
	if got := sreg.Counter("engine.steps").Value(); got == 0 {
		t.Error("engine.steps = 0: Config.Metrics was not forwarded to the engine")
	}

	// Commit round-trips increment the commit counter.
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for sreg.Counter("server.commits").Value() == 0 {
		select {
		case <-deadline:
			t.Fatal("server.commits never incremented")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// Frame accounting: the server must have read at least as many
	// frames as the client has successfully written so far, and vice
	// versa within the same slack (both sides keep chattering on
	// heartbeats, so exact equality is racy; the inequality direction
	// is exact because a frame is counted by the sender only after a
	// successful write that happened-before our read of the server
	// counter via the commit round-trip above).
	waitFrameBalance := func(name string, server func() uint64, clientSide func() uint64) {
		t.Helper()
		deadline := time.After(5 * time.Second)
		for {
			if server() >= clientSide() && server() > 0 {
				return
			}
			select {
			case <-deadline:
				t.Fatalf("%s: server=%d client=%d", name, server(), clientSide())
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	waitFrameBalance("frames_in vs client frames_out",
		func() uint64 { return sreg.Counter("server.frames_in").Value() },
		func() uint64 { return creg.Counter("client.frames_out").Value() })
	waitFrameBalance("client frames_in vs frames_out",
		func() uint64 { return creg.Counter("client.frames_in").Value() },
		func() uint64 { return sreg.Counter("server.frames_out").Value() })

	// Disconnect: the sessions gauge returns to zero.
	c.Close()
	deadline = time.After(5 * time.Second)
	for sreg.Gauge("server.sessions").Value() != 0 {
		select {
		case <-deadline:
			t.Fatalf("server.sessions = %d after client close, want 0",
				sreg.Gauge("server.sessions").Value())
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// TestServerHeartbeatRTTMetric drives the server's heartbeat prober and
// checks the RTT histogram fills: the client echoes heartbeats, so each
// probe round-trip produces one observation.
func TestServerHeartbeatRTTMetric(t *testing.T) {
	sreg := obs.NewRegistry()
	s := startServer(t, Config{
		Metrics:           sreg,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rtt := sreg.Histogram("server.heartbeat_rtt_ns", obs.DurationBuckets)
	deadline := time.After(5 * time.Second)
	for rtt.Count() == 0 {
		select {
		case <-deadline:
			t.Fatal("no heartbeat RTT observations after 5s of 20ms probes")
		case <-time.After(10 * time.Millisecond):
		}
	}
	if rtt.Sum() <= 0 {
		t.Errorf("heartbeat RTT sum = %d, want positive", rtt.Sum())
	}
}
