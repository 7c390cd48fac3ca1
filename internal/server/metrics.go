package server

import "cqp/internal/obs"

// serverMetrics are the session-layer instruments, resolved once at
// Listen time against Config.Metrics (nil yields detached instruments,
// so the handlers below never branch on "metrics enabled").
//
// The same registry is threaded into the processor (newProcessor wires
// Config.Metrics and obs.WallClock into the engine options), so one
// scrape of `cqp-server -metrics` returns engine and session metrics
// together.
type serverMetrics struct {
	tracer *obs.Tracer

	total *obs.Counter // sessions ever accepted

	framesIn  *obs.Counter
	framesOut *obs.Counter
	bytesIn   *obs.Counter
	bytesOut  *obs.Counter

	sheds        *obs.Counter   // sessions shed on outbox overflow
	writeBatch   *obs.Histogram // frames coalesced per writer flush
	evaluations  *obs.Counter   // bulk evaluation ticks
	ingestStalls *obs.Counter   // read-loop waits on an inbox one step ahead
	evalLatency  *obs.Histogram // full evaluate-and-enqueue duration
	streamed     *obs.Counter   // updates enqueued to subscribers
	rtt          *obs.Histogram // heartbeat round trips

	commits     *obs.Counter // committed client acknowledgments
	recoveries  *obs.Counter // wakeups healed with an incremental diff
	fullAnswers *obs.Counter // clients healed with a complete answer
}

func newServerMetrics(reg *obs.Registry) *serverMetrics {
	return &serverMetrics{
		tracer:       obs.NewTracer(obs.WallClock),
		total:        reg.Counter("server.sessions_total"),
		framesIn:     reg.Counter("server.frames_in"),
		framesOut:    reg.Counter("server.frames_out"),
		bytesIn:      reg.Counter("server.bytes_in"),
		bytesOut:     reg.Counter("server.bytes_out"),
		sheds:        reg.Counter("server.sheds"),
		writeBatch:   reg.Histogram("server.write_batch_frames", obs.SizeBuckets),
		evaluations:  reg.Counter("server.evaluations"),
		ingestStalls: reg.Counter("server.ingest_stalls"),
		evalLatency:  reg.Histogram("server.eval_ns", obs.DurationBuckets),
		streamed:     reg.Counter("server.updates.streamed"),
		rtt:          reg.Histogram("server.heartbeat_rtt_ns", obs.DurationBuckets),
		commits:      reg.Counter("server.commits"),
		recoveries:   reg.Counter("server.recoveries"),
		fullAnswers:  reg.Counter("server.full_answers"),
	}
}

// registerStateGauges adds the gauges that restate the server's own
// tables: server.sessions (live sessions) and server.subscriptions
// (query → session subscriptions), read under s.mu at scrape time.
func (s *Server) registerStateGauges(reg *obs.Registry) {
	reg.GaugeFunc("server.sessions", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.sessions))
	})
	reg.GaugeFunc("server.subscriptions", func() int64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return int64(len(s.subs))
	})
}
