package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"time"

	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/repository"
	"cqp/internal/wire"
)

// ingestSpec is the flood's population: every object reports in every
// round, against a handful of stationary range queries, so few reports
// change an answer and the server's ingest path does nearly all the work.
func ingestSpec(quick bool) scriptSpec {
	spec := scriptSpec{objects: 20000, ranges: 200, side: 0.02, objPerRnd: 20000, rounds: 40, dt: 5}
	if quick {
		spec.objects, spec.ranges, spec.objPerRnd, spec.rounds = 1000, 10, 1000, 10
	}
	return spec
}

const (
	ingestInterval = 10 * time.Millisecond
	chunkFrames    = 256 // frames per conn.Write: the flood flushes this often
	probeEvery     = 16  // chunks between probe reports: one per 4 096 reports
	warmupPasses   = 30  // unmeasured leading passes: 600 000 reports
	ingestSetups   = 7   // set-up takes tens of milliseconds, so more of them are affordable
	ceilingWindow  = 500 * time.Millisecond
)

// encodedRound is one round's object reports as wire bytes, with the
// offset at which each chunk of chunkFrames frames ends.
type encodedRound struct {
	data []byte
	ends []int
}

func (e *encodedRound) chunk(c int) []byte {
	start := 0
	if c > 0 {
		start = e.ends[c-1]
	}
	return e.data[start:e.ends[c]]
}

func encodeReports(n int, report func(i int) core.ObjectUpdate) (*encodedRound, error) {
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	e := &encodedRound{}
	for i := 0; i < n; i++ {
		if err := w.WriteBuffered(wire.ObjectReport{Update: report(i)}); err != nil {
			return nil, err
		}
		if (i+1)%chunkFrames == 0 || i == n-1 {
			if err := w.Flush(); err != nil {
				return nil, err
			}
			e.ends = append(e.ends, buf.Len())
		}
	}
	e.data = buf.Bytes()
	return e, nil
}

// floodScript is the pre-encoded form of an ingest script: the bootstrap
// population and one buffer per round. Because every object reports in
// every round, round r's buffer is also what undoes round r+1, so the
// flood plays the buffers up and down without a second encoding.
type floodScript struct {
	s      *script
	boot   *encodedRound
	rounds []*encodedRound
}

func encodeFlood(s *script, probes *probeSet) (*floodScript, error) {
	f := &floodScript{s: s}
	var err error
	n := s.numObjects()
	f.boot, err = encodeReports(n+probes.numObjects(), func(i int) core.ObjectUpdate {
		if i < n {
			return s.objectUpdate(i, s.objs0[i], 0)
		}
		return probes.objectUpdate(i-n, false, 0)
	})
	if err != nil {
		return nil, err
	}
	for r := range s.rounds {
		rd := &s.rounds[r]
		enc, err := encodeReports(len(rd.objs), func(i int) core.ObjectUpdate {
			return s.objectUpdate(int(rd.objs[i].idx), rd.objs[i].to, float64(r+1)*s.spec.dt)
		})
		if err != nil {
			return nil, err
		}
		f.rounds = append(f.rounds, enc)
	}
	return f, nil
}

// roundAt returns the script round the flood's n-th pass plays: up the
// rounds and back down, turning at both ends.
func (f *floodScript) roundAt(n int) int {
	r := len(f.rounds)
	if r == 1 {
		return 0
	}
	n %= 2*r - 2
	if n < r {
		return n
	}
	return 2*r - 2 - n
}

// ingestRun is one constructed ingest system: the harness plus the raw
// connection the flood writes to.
type ingestRun struct {
	h    *harness
	conn net.Conn
	w    *wire.Writer // for the frames encoded on the fly: probes, stats
	repo string       // repository directory, "" when not durable
}

func (r *ingestRun) close() error {
	if r.conn != nil {
		r.conn.Close()
	}
	var err error
	if r.h != nil {
		err = r.h.close()
	}
	return err
}

func (r *ingestRun) send(u core.ObjectUpdate) error { return r.w.Write(wire.ObjectReport{Update: u}) }

// startIngest sets the system up: server (with a fresh repository when
// durable), the raw connection with the bootstrap population written
// and acknowledged, the subscriber with its queries, and the bootstrap
// evaluation delivered.
func startIngest(cfg runConfig, tr *tracer, f *floodScript, probes *probeSet, repo string) (*ingestRun, error) {
	r := &ingestRun{repo: repo}
	h, err := startHarness(cfg, tr, f.s, probes, ingestInterval, repo, func(h *harness) error {
		var err error
		if r.conn, err = net.Dial("tcp", h.srv.Addr().String()); err != nil {
			return err
		}
		r.w = wire.NewWriter(r.conn)
		if _, err := r.conn.Write(f.boot.data); err != nil {
			return fmt.Errorf("write bootstrap: %w", err)
		}
		// The stats reply queues behind the bootstrap on the session.
		if err := r.w.Write(wire.StatsRequest{}); err != nil {
			return err
		}
		if _, err := wire.NewReader(r.conn).Read(); err != nil {
			return fmt.Errorf("read stats reply: %w", err)
		}
		return nil
	})
	if err != nil {
		r.close()
		return nil, err
	}
	r.h = h
	if err := h.sentinel(r.send); err != nil {
		r.close()
		return nil, err
	}
	return r, nil
}

func runIngestFlood(cfg runConfig) (*result, error)   { return runIngest(cfg, false) }
func runIngestDurable(cfg runConfig) (*result, error) { return runIngest(cfg, true) }

func runIngest(cfg runConfig, durable bool) (*result, error) {
	res := newResult(cfg)
	s := buildScript(ingestSpec(cfg.quick), cfg.seed)
	probes := newProbeSet(cfg.seed, probeQueries, probesPerQuery)
	genStart := time.Now()
	f, err := encodeFlood(s, probes)
	if err != nil {
		return nil, err
	}
	s.genS += time.Since(genStart).Seconds()
	tr := tracerFor(cfg)

	var (
		run   *ingestRun
		repos []string
	)
	defer func() {
		for _, dir := range repos {
			os.RemoveAll(dir)
		}
	}()
	setups, err := timeSetups(ingestSetups, func() (err error) {
		repo := ""
		if durable {
			// Creating the empty directory is part of a durable set-up.
			if repo, err = os.MkdirTemp(cfg.outDir, "repository-"); err != nil {
				return err
			}
			repos = append(repos, repo)
		}
		run, err = startIngest(cfg, tr, f, probes, repo)
		return err
	}, func() { run.close() })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			run.close()
		}
	}()
	h := run.h

	if tr != nil {
		ceiling, err := floodCeiling(f)
		if err != nil {
			return nil, err
		}
		res.set("gen.ceiling_kreports_per_s", ceiling, 1)
	}
	tr.start()

	// The flood: whole rounds, chunk by chunk, as fast as the server's
	// back-pressure lets conn.Write return. The first warmupPasses are
	// not measured: the repository's index is deepest-growing while it is
	// small, and the socket buffers are still being sized. A probe report
	// rides along every probeEvery chunks, so latency is how stale the
	// flooding client's own answers are: the time its reports queue in
	// front of the server, plus evaluation and delivery.
	var (
		sent, passes, chunks, probe int
		lastFull                    int // script round of the last complete pass
		partialRound, partialChunks int
	)
	for ; passes < warmupPasses; passes++ {
		lastFull = f.roundAt(passes)
		if _, err := run.conn.Write(f.rounds[lastFull].data); err != nil {
			return nil, fmt.Errorf("flood warm-up: %w", err)
		}
	}
	measured := probes.numObjects() - 1 // the last probe object is the sentinel's
	from := h.book.mark()
	start := time.Now()
	deadline := start.Add(time.Duration(cfg.seconds * float64(time.Second)))
flood:
	for {
		r := f.roundAt(passes)
		enc := f.rounds[r]
		for c := range enc.ends {
			if !time.Now().Before(deadline) {
				partialRound, partialChunks = r, c
				break flood
			}
			if _, err := run.conn.Write(enc.chunk(c)); err != nil {
				return nil, fmt.Errorf("flood: %w", err)
			}
			sent += min(chunkFrames, len(s.rounds[r].objs)-c*chunkFrames)
			if chunks++; chunks%probeEvery == 0 {
				call := time.Now()
				u, seq := h.book.next(probe%measured, call)
				if err := run.send(u); err != nil {
					return nil, fmt.Errorf("flood probe: %w", err)
				}
				h.book.stampSend(seq, call, time.Now())
				probe++
			}
		}
		lastFull = r
		passes++
	}
	to := h.book.mark()
	// The sentinel queues behind the whole flood on its connection.
	if err := h.sentinel(run.send); err != nil {
		return nil, err
	}
	end := time.Now()

	// The state the flood left behind: the last complete pass (the
	// warm-up guarantees one), then the chunks of the pass the deadline
	// cut short.
	track := newTracker(s)
	lastReport := func(r, upTo int) {
		for _, m := range s.rounds[r].objs[:upTo] {
			track.objs[m.idx] = m.to
		}
	}
	lastReport(lastFull, len(s.rounds[lastFull].objs))
	partial := min(partialChunks*chunkFrames, len(s.rounds[partialRound].objs))
	lastReport(partialRound, partial)

	total := sent + h.conclude(res, from, to, track.population())
	res.set("kreports_per_s", float64(total)/1e3/end.Sub(start).Seconds(), total)
	res.setSetup(setups)
	res.setMemory()
	res.set("gen.script_s", s.genS, 1)
	if err := tr.write(cfg); err != nil {
		return nil, err
	}

	if durable {
		// Close the server so the repository is flushed, then reopen it:
		// every report of a sampled object must be in its history.
		closed = true
		if err := run.close(); err != nil {
			return nil, fmt.Errorf("close: %w", err)
		}
		inPartial := make(map[int32]bool, partial)
		for _, m := range s.rounds[partialRound].objs[:partial] {
			inPartial[m.idx] = true
		}
		checked, bad, err := checkHistory(run.repo, s.numObjects(), func(i int) int {
			n := 1 + passes // the bootstrap report and one per complete pass
			if inPartial[int32(i)] {
				n++
			}
			return n
		})
		if err != nil {
			return nil, err
		}
		res.Attempted += checked
		res.Failed += bad
		if bad > 0 {
			res.Correct = false
		}
		if tr != nil {
			bytes, err := dirBytes(run.repo)
			if err != nil {
				return nil, err
			}
			persisted := total + s.numObjects() + probes.numObjects() + 2 // bootstrap and the two sentinels
			res.set("repository.bytes_per_report", float64(bytes)/float64(persisted), persisted)
			ns, n, err := appendCost(cfg.outDir, s)
			if err != nil {
				return nil, err
			}
			res.set("repository.append_ns", ns, n)
		}
	}
	return res, nil
}

// floodCeiling is what the generator can offer: the flood's write loop
// against a sink that reads and discards. Ingest rates are only
// meaningful below it.
func floodCeiling(f *floodScript) (kreportsPerS float64, err error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		io.Copy(io.Discard, c) // returns when the writer closes its end
	}()
	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return 0, err
	}
	start := time.Now()
	sent := 0
	for pass := 0; time.Since(start) < ceilingWindow; pass++ {
		enc := f.rounds[f.roundAt(pass)]
		for c := range enc.ends {
			if _, err := conn.Write(enc.chunk(c)); err != nil {
				conn.Close()
				<-done
				return 0, err
			}
		}
		sent += len(enc.ends) * chunkFrames
	}
	elapsed := time.Since(start).Seconds()
	conn.Close()
	<-done
	return float64(sent) / 1e3 / elapsed, nil
}

// checkHistory reopens the repository and compares the history length of
// 100 evenly sampled objects with the number of reports each was sent.
func checkHistory(dir string, objects int, want func(i int) int) (checked, bad int, err error) {
	repo, err := repository.Open(dir)
	if err != nil {
		return 0, 0, fmt.Errorf("reopen repository: %w", err)
	}
	defer repo.Close()
	stride := max(objects/100, 1)
	for i := 0; i < objects; i += stride {
		hist, err := repo.History(objectID(i))
		if err != nil {
			return checked, bad, fmt.Errorf("history of object %d: %w", i, err)
		}
		checked++
		if len(hist) != want(i) {
			bad++
		}
	}
	return checked, bad, nil
}

func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// appendCost times the repository layer alone: the first rounds of the
// same report stream appended to the benchmark's own repository.
func appendCost(outDir string, s *script) (nsPerAppend float64, n int, err error) {
	dir, err := os.MkdirTemp(outDir, "repository-")
	if err != nil {
		return 0, 0, err
	}
	defer os.RemoveAll(dir)
	repo, err := repository.Open(dir)
	if err != nil {
		return 0, 0, err
	}
	defer repo.Close()
	start := time.Now()
	for r := 0; r < min(5, len(s.rounds)); r++ {
		for _, m := range s.rounds[r].objs {
			rec := repository.LocationRecord{ID: objectID(int(m.idx)), Loc: geo.Point(m.to), T: float64(r)}
			if err := repo.AppendLocation(rec); err != nil {
				return 0, 0, err
			}
			n++
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(n), n, nil
}
