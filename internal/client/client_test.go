package client_test

import (
	"io"
	"log"
	"testing"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/server"
)

func startServer(t *testing.T) *server.Server {
	t.Helper()
	s, err := server.Listen("127.0.0.1:0", server.Config{
		Engine: core.Options{Bounds: geo.R(0, 0, 10, 10), GridN: 8},
		Logger: log.New(io.Discard, "", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func wait(t *testing.T, c *client.Client, kind client.EventKind) client.Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-c.Events():
			if !ok {
				t.Fatal("events channel closed")
			}
			if ev.Kind == kind {
				return ev
			}
		case <-deadline:
			t.Fatalf("timeout waiting for event %d", kind)
		}
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := client.Dial("127.0.0.1:1"); err == nil {
		t.Error("dial to closed port should fail")
	}
}

func TestAnswerUnknownQuery(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Answer(99); ok {
		t.Error("unknown query should be !ok")
	}
	if err := c.Commit(99); err == nil {
		t.Error("commit of unknown query should fail")
	}
}

func TestRegisterViaRemoveFlag(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	// RegisterQuery with Remove set routes to RemoveQuery.
	if err := c.RegisterQuery(core.QueryUpdate{ID: 1, Remove: true}); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Answer(1); ok {
		t.Error("removed query should be forgotten")
	}
}

func TestCloseIsIdempotentAndClosesEvents(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if _, ok := <-c.Events(); ok {
		// Drain anything buffered; the channel must eventually close.
		for range c.Events() {
		}
	}
	if err := c.Reconnect(s.Addr().String()); err == nil {
		t.Error("reconnect after close should fail")
	}
}

func TestMultipleQueriesOneConnection(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	c.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9, 9)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	c.RegisterQuery(core.QueryUpdate{ID: 2, Kind: core.Range, Region: geo.R(8, 8, 10, 10)})

	for i := 0; i < 100; i++ {
		s.Evaluate()
		a1, _ := c.Answer(1)
		a2, _ := c.Answer(2)
		if len(a1) == 1 && len(a2) == 1 {
			if a1[0] != 1 || a2[0] != 2 {
				t.Fatalf("answers: %v %v", a1, a2)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("answers never converged")
}

func TestAutoReconnectAfterDrop(t *testing.T) {
	s := startServer(t)
	addr := s.Addr().String()
	c, err := client.DialOptions(addr, client.Options{
		AutoReconnect: true,
		Retry: client.RetryPolicy{
			InitialBackoff: 5 * time.Millisecond,
			MaxBackoff:     50 * time.Millisecond,
			Seed:           3,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	feed.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	for i := 0; i < 100; i++ {
		s.Evaluate()
		if a, _ := c.Answer(1); len(a) == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Commit(1)
	wait(t, c, client.EventCommitted)

	// Sever the link; no manual Reconnect anywhere below. While away,
	// object 2 enters the region.
	if err := c.Drop(); err != nil {
		t.Fatal(err)
	}
	wait(t, c, client.EventDisconnected)
	feed.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(1.5, 1.5), T: 1})
	for i := 0; i < 100; i++ {
		s.Evaluate()
		if s.Stats().ObjectReports >= 2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The client reconnects by itself and recovers via the wakeup diff.
	// The server answers a wakeup against its last completed step, so
	// the client may be back before object 2's report is evaluated: +2
	// then arrives by the next batch instead of by the diff.
	ev := wait(t, c, client.EventRecovered)
	switch {
	case len(ev.Updates) == 0:
	case len(ev.Updates) == 1 && ev.Updates[0].Positive && ev.Updates[0].Object == 2:
	default:
		t.Fatalf("auto-recovery diff = %v", ev.Updates)
	}
	for i := 0; ; i++ {
		if ans, _ := c.Answer(1); len(ans) == 2 {
			break
		}
		if i == 100 {
			ans, _ := c.Answer(1)
			t.Fatalf("answer after auto-recovery = %v", ans)
		}
		s.Evaluate()
		time.Sleep(10 * time.Millisecond)
	}
}

func TestReconnectFailedAfterMaxAttempts(t *testing.T) {
	s := startServer(t)
	c, err := client.DialOptions(s.Addr().String(), client.Options{
		AutoReconnect: true,
		Retry: client.RetryPolicy{
			InitialBackoff: 2 * time.Millisecond,
			MaxBackoff:     10 * time.Millisecond,
			MaxAttempts:    3,
			Seed:           5,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Kill the server for good: every retry must fail, and after
	// MaxAttempts the client reports that it gave up.
	s.Close()
	wait(t, c, client.EventDisconnected)
	ev := wait(t, c, client.EventReconnectFailed)
	if ev.Err == nil {
		t.Fatal("EventReconnectFailed should carry the last dial error")
	}
}

func TestRecoveryAcrossMultipleQueries(t *testing.T) {
	s := startServer(t)
	addr := s.Addr().String()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()

	feed.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	feed.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9, 9)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	c.RegisterQuery(core.QueryUpdate{ID: 2, Kind: core.Range, Region: geo.R(8, 8, 10, 10)})
	for i := 0; i < 100; i++ {
		s.Evaluate()
		a1, _ := c.Answer(1)
		a2, _ := c.Answer(2)
		if len(a1) == 1 && len(a2) == 1 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Commit(1)
	wait(t, c, client.EventCommitted)
	c.Commit(2)
	wait(t, c, client.EventCommitted)

	// Drop; both queries change while away.
	c.Drop()
	wait(t, c, client.EventDisconnected)
	feed.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(9.5, 9.5), T: 2})
	feed.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(1.5, 1.5), T: 2})
	for i := 0; i < 100; i++ {
		s.Evaluate()
		if s.Stats().ObjectReports >= 4 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	if err := c.Reconnect(addr); err != nil {
		t.Fatal(err)
	}
	// Two recovery diffs arrive (one per query); afterwards both answers
	// match the server.
	wait(t, c, client.EventRecovered)
	wait(t, c, client.EventRecovered)
	a1, _ := c.Answer(1)
	a2, _ := c.Answer(2)
	if len(a1) != 1 || a1[0] != 2 {
		t.Fatalf("Q1 after recovery: %v", a1)
	}
	if len(a2) != 1 || a2[0] != 1 {
		t.Fatalf("Q2 after recovery: %v", a2)
	}
}

func TestOnAppliedHook(t *testing.T) {
	s := startServer(t)

	applied := make(chan []core.Update, 16)
	c, err := client.DialOptions(s.Addr().String(), client.Options{
		OnApplied: func(updates []core.Update) {
			cp := make([]core.Update, len(updates))
			copy(cp, updates)
			applied <- cp
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	c.ReportObject(core.ObjectUpdate{ID: 7, Kind: core.Moving, Loc: geo.Pt(1, 1)})

	deadline := time.After(5 * time.Second)
	for {
		s.Evaluate()
		select {
		case batch := <-applied:
			// The hook fires after the batch is folded into the local
			// answer: the answer must already contain the object.
			if len(batch) != 1 || batch[0].Object != 7 || !batch[0].Positive {
				t.Fatalf("applied batch = %+v", batch)
			}
			if a, _ := c.Answer(1); len(a) != 1 || a[0] != 7 {
				t.Fatalf("answer at hook delivery = %v", a)
			}
			// The event itself still arrives afterwards.
			wait(t, c, client.EventUpdates)
			return
		case <-deadline:
			t.Fatal("OnApplied never fired")
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// TestKindChangeResetsAnswer re-registers a kNN query as a range query.
// The server drops the kNN answer silently, so the client must too, and
// converge to the range answer alone.
func TestKindChangeResetsAnswer(t *testing.T) {
	s := startServer(t)
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	c.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9, 9)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.KNN, Focal: geo.Pt(1, 1), K: 1})
	converge := func(want core.ObjectID) {
		t.Helper()
		for i := 0; i < 100; i++ {
			s.Evaluate()
			if a, _ := c.Answer(1); len(a) == 1 && a[0] == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		a, _ := c.Answer(1)
		sa, _ := s.Answer(1)
		t.Fatalf("client answer %v never converged to [%d]; server answer %v", a, want, sa)
	}
	converge(1)

	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(8, 8, 10, 10)})
	converge(2)
}

// TestSlowConsumerDoesNotBlockAnswerOrCommit streams more events than
// the 64-event buffer holds to a client whose consumer does not read.
// The read loop waits to deliver the next event, but not under the
// client's lock: Answer and Commit from another goroutine must return.
func TestSlowConsumerDoesNotBlockAnswerOrCommit(t *testing.T) {
	s := startServer(t)
	reg := obs.NewRegistry()
	c, err := client.DialOptions(s.Addr().String(), client.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	feed, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	// Object 7 enters or leaves the query every step: an event a step.
	for i := 0; i < 70; i++ {
		feed.ReportObject(core.ObjectUpdate{ID: 7, Kind: core.Moving, Loc: geo.Pt(1+float64(i%2)*5, 1), T: float64(i)})
		feed.RequestStats()
		wait(t, feed, client.EventStats)
		s.Evaluate()
	}
	// More frames than the buffer's 64 arrive however loaded the box is;
	// go test's -timeout bounds the wait.
	for reg.Counter("client.frames_in").Value() < 65 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(10 * time.Millisecond) // the 65th delivery blocks
	done := make(chan error, 1)
	go func() {
		c.Answer(1)
		done <- c.Commit(1)
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Second):
		t.Error("Answer or Commit blocked behind an undelivered event")
	}
	go func() {
		for range c.Events() {
		}
	}()
}
