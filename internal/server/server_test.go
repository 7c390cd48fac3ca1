package server

import (
	"fmt"
	"io"
	"log"
	"testing"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/geo"
)

func quietLogger() *log.Logger { return log.New(io.Discard, "", 0) }

func startServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	if cfg.Engine.Bounds.Empty() {
		cfg.Engine = core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8}
	}
	if cfg.Logger == nil {
		cfg.Logger = quietLogger()
	}
	s, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// waitEvent reads events until one of the wanted kind arrives (or fails
// the test after a timeout), returning it.
func waitEvent(t *testing.T, c *client.Client, kind client.EventKind) client.Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("events channel closed while waiting")
			}
			if ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for event kind %d", kind)
		}
	}
}

// settle evaluates until the server has drained its buffers and n updates
// were cumulatively produced, bounded by attempts.
func evaluateUntil(t *testing.T, s *Server, pred func() bool) {
	t.Helper()
	for i := 0; i < 100; i++ {
		s.Evaluate()
		if pred() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server did not settle")
}

func TestOutOfSyncRecoveryDiff(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Second connection acts as the moving-object feed, so the query
	// client can disconnect independently.
	feed, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	for i := core.ObjectID(1); i <= 4; i++ {
		feed.ReportObject(core.ObjectUpdate{ID: i, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	}
	// p1, p2 inside; p3, p4 outside.
	feed.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5)})
	feed.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(5.5, 5.5)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)})
	evaluateUntil(t, s, func() bool { return s.NumObjects() == 4 && s.NumQueries() == 1 })
	waitEvent(t, c, client.EventUpdates)
	if ans, _ := c.Answer(1); len(ans) != 2 {
		t.Fatalf("initial answer = %v", ans)
	}
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, c, client.EventCommitted)

	// Disconnect; while away, p2 leaves and p3, p4 enter (Figure 4).
	if err := c.Drop(); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, c, client.EventDisconnected)
	feed.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9, 9), T: 2})
	feed.ReportObject(core.ObjectUpdate{ID: 3, Kind: core.Moving, Loc: geo.Pt(4.5, 5), T: 2})
	feed.ReportObject(core.ObjectUpdate{ID: 4, Kind: core.Moving, Loc: geo.Pt(5, 4.5), T: 2})
	// Barrier: wait until all 9 object reports (6 initial + 3 above) have
	// been applied, so the disconnected-period changes are really in.
	evaluateUntil(t, s, func() bool { return s.Stats().ObjectReports >= 9 })

	// Reconnect: the server should send the committed→current diff
	// (−2, +3, +4), not the whole answer.
	if err := c.Reconnect(addr); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, c, client.EventRecovered)
	if len(ev.Updates) != 3 {
		t.Fatalf("recovery diff = %v", ev.Updates)
	}
	ans, _ := c.Answer(1)
	if fmt.Sprint(ans) != "[1 3 4]" {
		t.Fatalf("answer after recovery = %v", ans)
	}
}

func TestTickerDrivenServer(t *testing.T) {
	s := startServer(t, Config{Interval: 5 * time.Millisecond})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	// No manual Evaluate: the ticker must deliver.
	ev := waitEvent(t, c, client.EventUpdates)
	if len(ev.Updates) != 1 || ev.Updates[0].Object != 1 {
		t.Fatalf("updates = %v", ev.Updates)
	}
}

func TestStatsRequest(t *testing.T) {
	s := startServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	evaluateUntil(t, s, func() bool { return s.NumObjects() == 1 && s.NumQueries() == 1 })

	if err := c.RequestStats(); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, c, client.EventStats)
	if ev.Stats == nil {
		t.Fatal("stats payload missing")
	}
	if ev.Stats.Objects != 1 || ev.Stats.Queries != 1 {
		t.Fatalf("stats population: %+v", ev.Stats)
	}
	if ev.Stats.Stats.ObjectReports != 1 || ev.Stats.Stats.PositiveUpdates != 1 {
		t.Fatalf("stats counters: %+v", ev.Stats.Stats)
	}
	if ev.Stats.Uptime < 0 {
		t.Fatalf("uptime: %v", ev.Stats.Uptime)
	}
}
