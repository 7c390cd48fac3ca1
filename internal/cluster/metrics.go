package cluster

import (
	"strconv"

	"cqp/internal/obs"
)

// clusterMetrics are the coordinator's pre-resolved observability
// instruments, bound against the same registry the shard router and the
// tile engines use (Config.Shard.Core.Metrics), so one /metrics scrape
// sees the whole stack: engine work, router merges, and cluster health.
// New adds two gauges derived from the coordinator's tables at scrape
// time: cluster.tiles.fallback (TilesInFallback) and cluster.workers.up
// (NumWorkersUp).
type clusterMetrics struct {
	reg    *obs.Registry
	tracer *obs.Tracer

	restarts    *obs.Counter // cluster.worker.restarts: worker deaths observed (respawns follow)
	resyncs     *obs.Counter // cluster.resyncs: tiles successfully handed back to a worker
	resyncFails *obs.Counter // cluster.resync.failures: timeouts and checksum mismatches
	staleEpochs *obs.Counter // cluster.stale_epochs: frames discarded for carrying an old epoch
}

// newClusterMetrics resolves every instrument against reg (nil yields
// detached instruments) and binds the injected clock.
func newClusterMetrics(reg *obs.Registry, clock obs.Clock) *clusterMetrics {
	return &clusterMetrics{
		reg:         reg,
		tracer:      obs.NewTracer(clock),
		restarts:    reg.Counter("cluster.worker.restarts"),
		resyncs:     reg.Counter("cluster.resyncs"),
		resyncFails: reg.Counter("cluster.resync.failures"),
		staleEpochs: reg.Counter("cluster.stale_epochs"),
	}
}

// heartbeatRTT resolves the per-worker heartbeat round-trip histogram.
// The worker loop is single-threaded by design, so this RTT measures
// liveness of the whole worker — a worker wedged mid-step stops echoing.
func (m *clusterMetrics) heartbeatRTT(worker int) *obs.Histogram {
	return m.reg.Histogram("cluster.worker."+strconv.Itoa(worker)+".heartbeat_rtt_ns", obs.DurationBuckets)
}
