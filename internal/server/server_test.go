package server

import (
	"fmt"
	"io"
	"log"
	"math/rand"
	"path/filepath"
	"sync"
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

func TestEndToEndRangeQuery(t *testing.T) {
	s := startServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(3, 3)}); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(2, 2, 4, 4)}); err != nil {
		t.Fatal(err)
	}
	evaluateUntil(t, s, func() bool { return s.NumObjects() == 1 && s.NumQueries() == 1 })
	// The registration evaluation produced one positive update.
	ev := waitEvent(t, c, client.EventUpdates)
	if len(ev.Updates) != 1 || !ev.Updates[0].Positive || ev.Updates[0].Object != 1 {
		t.Fatalf("updates = %v", ev.Updates)
	}
	ans, ok := c.Answer(1)
	if !ok || len(ans) != 1 || ans[0] != 1 {
		t.Fatalf("client answer = %v %v", ans, ok)
	}

	// Object leaves: negative update arrives.
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(9, 9), T: 1})
	evaluateUntil(t, s, func() bool { st := s.Stats(); return st.NegativeUpdates >= 1 })
	ev = waitEvent(t, c, client.EventUpdates)
	if len(ev.Updates) != 1 || ev.Updates[0].Positive {
		t.Fatalf("updates = %v", ev.Updates)
	}
	if ans, _ := c.Answer(1); len(ans) != 0 {
		t.Fatalf("answer after departure = %v", ans)
	}
}

func TestCommitMatchesSilently(t *testing.T) {
	s := startServer(t, Config{})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)})
	evaluateUntil(t, s, func() bool { return s.NumQueries() == 1 })
	waitEvent(t, c, client.EventUpdates)

	// A commit with the up-to-date answer must NOT trigger a full-answer
	// fallback. Verify by committing then confirming the next event is a
	// routine update, not a FullAnswer.
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	c.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(5.5, 5.5), T: 1})
	evaluateUntil(t, s, func() bool { st := s.Stats(); return st.PositiveUpdates >= 2 })
	ev := waitEvent(t, c, client.EventUpdates)
	for _, u := range ev.Updates {
		if u.Object == 2 && u.Positive {
			return
		}
	}
	t.Fatalf("expected +2 update, got %v", ev.Updates)
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

func TestServerRestartRecoveryWithRepository(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	cfg := Config{RepositoryDir: dir}
	s := startServer(t, cfg)
	addr := s.Addr().String()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5)})
	c.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(5.2, 5.2)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)})
	evaluateUntil(t, s, func() bool { return s.NumQueries() == 1 && s.NumObjects() == 2 })
	waitEvent(t, c, client.EventUpdates)
	if err := c.Commit(1); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, c, client.EventCommitted)

	// Hard restart on a fresh port, same repository.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, c, client.EventDisconnected)
	s2 := startServer(t, Config{RepositoryDir: dir})
	addr2 := s2.Addr().String()

	// Re-feed the objects through a second connection, then reconnect the
	// query client. The committed answer was restored from the repository,
	// so recovery is the incremental diff (empty here: nothing changed).
	feed, err := client.Dial(addr2)
	if err != nil {
		t.Fatal(err)
	}
	defer feed.Close()
	feed.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5)})
	feed.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(5.2, 5.2)})
	evaluateUntil(t, s2, func() bool { return s2.NumObjects() == 2 })

	if err := c.Reconnect(addr2); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, c, client.EventRecovered)
	if len(ev.Updates) != 0 {
		t.Fatalf("expected empty recovery diff, got %v", ev.Updates)
	}
	ans, _ := c.Answer(1)
	if fmt.Sprint(ans) != "[1 2]" {
		t.Fatalf("answer after restart recovery = %v", ans)
	}
}

func TestServerRestartWithoutRepositoryFallsBack(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5)})
	c.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)})
	evaluateUntil(t, s, func() bool { return s.NumQueries() == 1 })
	waitEvent(t, c, client.EventUpdates)
	c.Commit(1)
	waitEvent(t, c, client.EventCommitted)

	s.Close()
	waitEvent(t, c, client.EventDisconnected)

	// Fresh server, no repository: the wakeup checksum cannot match (the
	// restarted server has an empty committed answer, the client a
	// non-empty one), so the server falls back to the complete answer.
	s2 := startServer(t, Config{})
	if err := c.Reconnect(s2.Addr().String()); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, c, client.EventFullAnswer)
	if ev.Query != 1 {
		t.Fatalf("full answer for query %d", ev.Query)
	}
	// The full answer is empty (objects not re-reported yet): client must
	// have reset.
	if ans, _ := c.Answer(1); len(ans) != 0 {
		t.Fatalf("answer after fallback = %v", ans)
	}

	// Objects reappear; normal incremental flow resumes.
	c.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(5, 5), T: 9})
	evaluateUntil(t, s2, func() bool { return s2.NumObjects() == 1 })
	waitEvent(t, c, client.EventUpdates)
	if ans, _ := c.Answer(1); fmt.Sprint(ans) != "[1]" {
		t.Fatalf("answer after resume = %v", ans)
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

func TestMultipleClientsIsolation(t *testing.T) {
	s := startServer(t, Config{})
	addr := s.Addr().String()
	c1, _ := client.Dial(addr)
	defer c1.Close()
	c2, _ := client.Dial(addr)
	defer c2.Close()

	c1.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(0, 0, 2, 2)})
	c2.RegisterQuery(core.QueryUpdate{ID: 2, Kind: core.Range, Region: geo.R(8, 8, 10, 10)})
	c1.ReportObject(core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 1)})
	c1.ReportObject(core.ObjectUpdate{ID: 2, Kind: core.Moving, Loc: geo.Pt(9, 9)})
	evaluateUntil(t, s, func() bool { return s.NumObjects() == 2 && s.NumQueries() == 2 })

	ev1 := waitEvent(t, c1, client.EventUpdates)
	for _, u := range ev1.Updates {
		if u.Query != 1 {
			t.Fatalf("client 1 received foreign update %v", u)
		}
	}
	ev2 := waitEvent(t, c2, client.EventUpdates)
	for _, u := range ev2.Updates {
		if u.Query != 2 {
			t.Fatalf("client 2 received foreign update %v", u)
		}
	}
}

func TestStationaryCatalogSurvivesRestart(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "repo")
	s := startServer(t, Config{RepositoryDir: dir})
	c, err := client.Dial(s.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A stationary gas station is reported once, ever.
	c.ReportObject(core.ObjectUpdate{ID: 77, Kind: core.Stationary, Loc: geo.Pt(5, 5)})
	evaluateUntil(t, s, func() bool { return s.NumObjects() == 1 })
	s.Close()
	waitEvent(t, c, client.EventDisconnected)

	// The restarted server knows it without any client re-reporting.
	s2 := startServer(t, Config{RepositoryDir: dir})
	if s2.NumObjects() != 1 {
		t.Fatalf("restarted server has %d objects", s2.NumObjects())
	}
	c2, err := client.Dial(s2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.RegisterQuery(core.QueryUpdate{ID: 1, Kind: core.Range, Region: geo.R(4, 4, 6, 6)})
	evaluateUntil(t, s2, func() bool { return s2.NumQueries() == 1 })
	ev := waitEvent(t, c2, client.EventUpdates)
	if len(ev.Updates) != 1 || ev.Updates[0].Object != 77 {
		t.Fatalf("updates = %v", ev.Updates)
	}

	// Removing the stationary object removes it from the durable catalog.
	c2.ReportObject(core.ObjectUpdate{ID: 77, Remove: true})
	evaluateUntil(t, s2, func() bool { return s2.NumObjects() == 0 })
	s2.Close()
	s3 := startServer(t, Config{RepositoryDir: dir})
	if s3.NumObjects() != 0 {
		t.Fatalf("catalog resurrection: %d objects", s3.NumObjects())
	}
}

// TestConcurrentClientsStress hammers the server with several concurrent
// clients that report, subscribe, commit, drop, and recover while the
// ticker evaluates, then verifies every surviving client converges to the
// server's answers. Run with -race to exercise the locking.
func TestConcurrentClientsStress(t *testing.T) {
	s := startServer(t, Config{Interval: 2 * time.Millisecond})
	addr := s.Addr().String()

	const (
		numClients = 8
		numObjects = 30
		steps      = 40
	)
	var wg sync.WaitGroup
	errs := make(chan error, numClients)
	for ci := 0; ci < numClients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := client.Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			// Drain events concurrently.
			done := make(chan struct{})
			go func() {
				defer close(done)
				for range c.Events() {
				}
			}()

			rng := rand.New(rand.NewSource(int64(ci)))
			q := core.QueryID(ci + 1)
			if err := c.RegisterQuery(core.QueryUpdate{
				ID: q, Kind: core.Range,
				Region: geo.RectAt(geo.Pt(rng.Float64()*10, rng.Float64()*10), 3),
			}); err != nil {
				errs <- err
				return
			}
			base := core.ObjectID(ci*numObjects + 1)
			for step := 0; step < steps; step++ {
				id := base + core.ObjectID(rng.Intn(numObjects))
				if err := c.ReportObject(core.ObjectUpdate{
					ID: id, Kind: core.Moving,
					Loc: geo.Pt(rng.Float64()*10, rng.Float64()*10),
					T:   float64(step),
				}); err != nil {
					errs <- err
					return
				}
				switch rng.Intn(10) {
				case 0:
					if err := c.Commit(q); err != nil {
						errs <- err
						return
					}
				case 1:
					c.Drop()
					// Wait for the read loop to notice, then recover.
					time.Sleep(5 * time.Millisecond)
					if err := c.Reconnect(addr); err != nil {
						errs <- err
						return
					}
				}
			}
			c.Close()
			<-done
		}(ci)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s.NumQueries() != numClients {
		t.Fatalf("queries registered: %d", s.NumQueries())
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
