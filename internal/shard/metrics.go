package shard

import "cqp/internal/obs"

// shardMetrics are the router's pre-resolved observability instruments.
// They are bound once in New against the same registry (and clock) the
// tile engines receive through Options.Core, so one scrape sees both
// views: the aggregated per-tile "engine.*" metrics and the router's
// own "shard.*" merge and balance metrics.
type shardMetrics struct {
	tracer *obs.Tracer

	stepLatency   *obs.Histogram // full router Step, merge included (needs a Clock)
	stepSkew      *obs.Histogram // slowest−fastest tile per broadcast (needs a Clock)
	queueDepth    *obs.Histogram // per-tile buffered reports at broadcast time
	replicaFanout *obs.Histogram // replicas per applied query update (coverage size)

	steps         *obs.Counter
	migrations    *obs.Counter // cross-tile object moves (remove+insert splits)
	netted        *obs.Counter // merge-dedup hits: (query, object) pairs whose updates in one round canceled
	knnSubsteps   *obs.Counter // tiles sub-stepped by the kNN settle fixpoint
	mergedUpdates *obs.Counter // updates emitted after the merge
	tileSplits    *obs.Counter // hot-tile splits applied
	tileMerges    *obs.Counter // cold-sibling merges applied

	tiles          *obs.Gauge // live tile count
	tileObjectsMax *obs.Gauge // owned objects on the fullest tile: balance monitor
	tileAreaMax    *obs.Gauge // largest live tile's share of the bounds, in ppm
	lastEmitted    *obs.Gauge // merged updates emitted by the last Step
}

// newShardMetrics resolves every instrument against reg (nil reg yields
// detached instruments) and binds the injected clock.
func newShardMetrics(reg *obs.Registry, clock obs.Clock) *shardMetrics {
	return &shardMetrics{
		tracer:         obs.NewTracer(clock),
		stepLatency:    reg.Histogram("shard.step_ns", obs.DurationBuckets),
		stepSkew:       reg.Histogram("shard.step_skew_ns", obs.DurationBuckets),
		queueDepth:     reg.Histogram("shard.queue_depth", obs.SizeBuckets),
		replicaFanout:  reg.Histogram("shard.query_replicas", obs.SizeBuckets),
		steps:          reg.Counter("shard.steps"),
		migrations:     reg.Counter("shard.migrations"),
		netted:         reg.Counter("shard.merge.netted"),
		knnSubsteps:    reg.Counter("shard.knn.substeps"),
		mergedUpdates:  reg.Counter("shard.updates.merged"),
		tileSplits:     reg.Counter("shard.tile_splits"),
		tileMerges:     reg.Counter("shard.tile_merges"),
		tiles:          reg.Gauge("shard.tiles"),
		tileObjectsMax: reg.Gauge("shard.tile_objects_max"),
		tileAreaMax:    reg.Gauge("shard.tile_area_max_ppm"),
		lastEmitted:    reg.Gauge("shard.last_emitted"),
	}
}
