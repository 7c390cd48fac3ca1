// Package cluster distributes the sharded continuous query processor
// across worker processes while preserving the canonical merged update
// stream bit-for-bit.
//
// The coordinator reuses internal/shard's router unchanged — partition,
// replicate, merge — by implementing shard.Tile over the wire protocol:
// each tile's engine lives in a worker process, reports travel in one
// ClusterStep frame per tile per (sub-)step, and the per-tile update
// batches come back in ClusterStepResult frames. Because the router's
// routing and merge logic is byte-identical to the in-process engine's,
// so is the merged stream — the differential suite asserts it.
//
// The robustness model (the reason this package exists):
//
//   - Liveness is deadline-based: every worker link carries heartbeats,
//     echoed by the worker's single-threaded loop, so a dead process, a
//     stalled link, or a wedged step all present the same way — the
//     echo stops and the deadline fires.
//   - Death is graceful degradation, not failure: each tile keeps a
//     compact journal (latest report per object, latest definition per
//     replica, last step time) from which it rebuilds an in-process
//     fallback engine, re-runs the failed step locally, and keeps
//     answering. The router — and every client above it — never sees a
//     worker die.
//   - Recovery is verified: dead workers are respawned with jittered
//     exponential backoff; a recovered worker is handed a tile back
//     only after rebuilding it from the journal and proving, via a
//     state checksum over every replica answer, that its state matches
//     the coordinator's fallback engine. Epoch stamps on every frame
//     keep incarnations from bleeding into each other.
//
// Correctness across all of this rests on one property the rest of the
// repository already enforces: a tile engine is a deterministic,
// memoryless function of its latest inputs. See clusterTile.
package cluster

import (
	"fmt"
	"sync"
	"time"

	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/shard"
	"cqp/internal/wire"
)

// Backoff shapes the jittered exponential respawn delay of dead
// workers. The zero value picks the noted defaults.
type Backoff struct {
	Initial    time.Duration // delay before the first respawn (default 50ms)
	Max        time.Duration // ceiling (default 2s)
	Multiplier float64       // growth factor (default 2)
	Jitter     float64       // ± fraction applied to each delay (default 0.2)
}

func (b Backoff) withDefaults() Backoff {
	if b.Initial <= 0 {
		b.Initial = 50 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 2 * time.Second
	}
	if b.Multiplier <= 1 {
		b.Multiplier = 2
	}
	if b.Jitter <= 0 {
		b.Jitter = 0.2
	}
	return b
}

// Config parameterizes a Cluster.
type Config struct {
	// Shard configures the coordinator's router and, through Shard.Core,
	// the semantic engine options every tile backend — worker-side and
	// fallback — is built from. Required.
	Shard shard.Options

	// Workers is the number of worker slots; tiles are pinned round-robin
	// (tile i → slot i mod Workers). Defaults to 1.
	Workers int

	// Spawner creates worker backends. Required.
	Spawner Spawner

	// HeartbeatInterval is the probe period per worker link (default
	// 100ms); HeartbeatTimeout is the echo-age deadline past which the
	// worker is declared dead (default 1s). The timeout must comfortably
	// exceed the worst step or resync a worker legitimately performs,
	// since the single-threaded worker does not echo while evaluating.
	HeartbeatInterval time.Duration
	HeartbeatTimeout  time.Duration

	// ResyncTimeout bounds the assign/resync/ack handshake when handing a
	// tile back to a recovered worker (default 2s); on expiry the link is
	// discarded and the tile stays in fallback.
	ResyncTimeout time.Duration

	// Backoff shapes worker respawn delays; Seed fixes their jitter for
	// reproducible tests (default 1).
	Backoff Backoff
	Seed    int64

	// Clock measures heartbeat ages and RTTs (default obs.WallClock).
	Clock obs.Clock
}

func (c Config) withDefaults() (Config, error) {
	if c.Spawner == nil {
		return c, fmt.Errorf("cluster: Config.Spawner is required")
	}
	if c.Workers == 0 {
		c.Workers = 1
	}
	if c.Workers < 1 {
		return c, fmt.Errorf("cluster: Config.Workers must be positive, got %d", c.Workers)
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 100 * time.Millisecond
	}
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 1 * time.Second
	}
	if c.ResyncTimeout <= 0 {
		c.ResyncTimeout = 2 * time.Second
	}
	c.Backoff = c.Backoff.withDefaults()
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Clock == nil {
		c.Clock = obs.WallClock
	}
	return c, nil
}

// Cluster is the coordinator: a core.Processor whose tiles live in
// worker processes. Like every processor it is not safe for concurrent
// use; callers serialize access (internal/server already does).
type Cluster struct {
	*shard.Engine

	cfg   Config
	m     *clusterMetrics
	slots []*workerSlot
	stop  chan struct{}

	// tiles is indexed by tile id and grows when repartitioning attaches
	// fresh tiles mid-run; a retired id's entry is nil. The demux
	// goroutines and metric scrapes read it concurrently with the
	// router's changes, hence the lock.
	tilesMu sync.RWMutex
	tiles   []*clusterTile

	closeOnce sync.Once
}

var _ core.Processor = (*Cluster)(nil)

// New builds the coordinator, spawns the first worker of every slot
// synchronously (so tiles go remote from the first step), and assembles
// the router. A slot whose first spawn fails starts down and respawns
// in the background: graceful degradation begins at construction.
func New(cfg Config) (*Cluster, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	// Validate the semantic engine options once, up front, so every later
	// engine construction (worker assign, fallback rebuild) is infallible.
	if _, err := core.NewEngine(cfg.Shard.Core); err != nil {
		return nil, err
	}
	cl := &Cluster{
		cfg:  cfg,
		m:    newClusterMetrics(cfg.Shard.Core.Metrics, cfg.Clock),
		stop: make(chan struct{}),
	}
	for i := 0; i < cfg.Workers; i++ {
		cl.slots = append(cl.slots, newWorkerSlot(cl, i))
	}
	eng, err := shard.NewWithTiles(cfg.Shard, func(tile int, opt core.Options) (shard.Tile, error) {
		t := newClusterTile(cl, tile, opt, cl.slots[tile%cfg.Workers])
		cl.tilesMu.Lock()
		for len(cl.tiles) <= tile {
			cl.tiles = append(cl.tiles, nil)
		}
		cl.tiles[tile] = t
		cl.tilesMu.Unlock()
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	cl.Engine = eng
	// The derived gauges read the slot and tile tables, so they register
	// only once both exist.
	cl.m.reg.GaugeFunc("cluster.tiles.fallback", func() int64 { return int64(cl.TilesInFallback()) })
	cl.m.reg.GaugeFunc("cluster.workers.up", func() int64 { return int64(cl.NumWorkersUp()) })
	// Tiles exist before any demux goroutine starts: spawn the first
	// incarnations only now.
	for _, s := range cl.slots {
		s.nextInc = 1
		var st *slotConn
		if proc, err := cfg.Spawner.Spawn(s.id, 1); err == nil {
			st = s.attach(proc, 1)
		}
		s.wg.Add(1)
		go s.run(st)
	}
	return cl, nil
}

// Close stops the router, every worker process, and the spawner. The
// cluster must not be used afterwards.
func (c *Cluster) Close() error {
	c.closeOnce.Do(func() {
		close(c.stop)
		c.Engine.Close()
		for _, s := range c.slots {
			s.close()
		}
		c.cfg.Spawner.Close()
		for _, s := range c.slots {
			s.wg.Wait()
		}
	})
	return nil
}

// NumWorkersUp returns the number of currently live worker links, for
// tests and monitoring; it is the value of cluster.workers.up.
func (c *Cluster) NumWorkersUp() int {
	n := 0
	for _, s := range c.slots {
		if s.current() != nil {
			n++
		}
	}
	return n
}

// TilesInFallback returns how many live tiles ran their most recent
// step on their in-process fallback engine; a tile that has not stepped
// yet does not count. It is safe to call concurrently with Step, and it
// is the value of cluster.tiles.fallback.
func (c *Cluster) TilesInFallback() int {
	c.tilesMu.RLock()
	defer c.tilesMu.RUnlock()
	n := 0
	for _, t := range c.tiles {
		if t != nil && t.inFallback.Load() {
			n++
		}
	}
	return n
}

// KillWorker forcefully kills worker slot i's current process, if any —
// a chaos drill: the supervisor detects the death, the slot's tiles
// fall back in-process, and the worker is respawned and resynced.
// Reports whether a live worker was there to kill.
func (c *Cluster) KillWorker(i int) bool {
	if i < 0 || i >= len(c.slots) {
		return false
	}
	st := c.slots[i].current()
	if st == nil {
		return false
	}
	st.proc.Kill()
	return true
}

func (c *Cluster) clock() int64 { return c.cfg.Clock() }

func (c *Cluster) stopped() bool {
	select {
	case <-c.stop:
		return true
	default:
		return false
	}
}

// sleep waits d or until the cluster stops; it reports whether the
// cluster is still running.
func (c *Cluster) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-c.stop:
		return false
	}
}

// tile returns the transport of tile id i, or nil for ids the
// coordinator has never attached.
func (c *Cluster) tile(i uint32) *clusterTile {
	c.tilesMu.RLock()
	defer c.tilesMu.RUnlock()
	if int(i) >= len(c.tiles) {
		return nil
	}
	return c.tiles[i]
}

// deliverResult routes a step result to its tile. The channel send
// never blocks: a tile holds at most one outstanding step, so a full
// buffer only ever means stale frames, which the epoch gate discards.
// A result addressed to a retired tile is dropped — tile ids are not
// reused, so it cannot be misdelivered.
func (c *Cluster) deliverResult(m wire.ClusterStepResult) {
	t := c.tile(m.Tile)
	if t == nil {
		return
	}
	select {
	case t.resc <- m:
	default:
	}
}

func (c *Cluster) deliverAck(m wire.ClusterResyncAck) {
	t := c.tile(m.Tile)
	if t == nil {
		return
	}
	select {
	case t.ackc <- m:
	default:
	}
}
