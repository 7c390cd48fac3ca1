// Package shard implements the spatially sharded continuous query
// processor: the monitored space is split into tiles, each tile owns an
// independent core.Engine driven by its own worker goroutine, and a
// thin single-threaded router partitions reports, replicates queries,
// runs all tile engines in parallel, and merges the per-tile update
// streams back into one exact global answer stream.
//
// The design follows the distributed continuous-query literature (Zhu &
// Yu's distributed range monitoring, MOIST's space-partitioned moving
// object indexer): partition the space, evaluate per partition, and
// coordinate at the edges. Concretely:
//
//   - Every object is owned by exactly one tile — the tile containing
//     its (bounds-clamped) reported location. A report that moves an
//     object across a tile boundary is split into a removal routed to
//     the old tile and an insertion routed to the new tile, so negative
//     updates for queries in the old tile still fire.
//   - Range queries are replicated to every tile their region overlaps,
//     with the replica's region clipped to the tile's halo-expanded
//     extent; predictive range queries to every tile their region grown
//     by MaxSpeed·PredictiveHorizon overlaps (every tile when MaxSpeed
//     is unset: a predictive object's trajectory can then reach a
//     distant query region from any tile); kNN queries to every tile
//     overlapping their focal circle plus a one-tile padding ring,
//     re-replicated whenever the circle grows.
//   - Each tile engine spans only its own tile plus a halo margin of one
//     global grid cell: its core.Options.Region is the tile rectangle
//     expanded by the halo (clipped to the global bounds), so the
//     spatial index resolution concentrates where the tile's objects
//     actually are. Correctness does not depend on the halo — engine
//     answers are invariant under the Region choice (predicates
//     evaluate raw geometry; the grid is only a candidate generator;
//     see core.Options.Region) — it exists so a replica's clipped
//     region and its owned objects stay well inside the tile's index.
//   - The tiling is a fixed Rows×Cols grid.
//   - Step broadcasts the evaluation to all tiles, runs them in
//     parallel, and merges the resulting streams with one sorted fold
//     per query: every object has one owning tile, so a query's merged
//     membership is the disjoint union of its replicas' memberships, and
//     a pair retracted by one tile and asserted by another in the same
//     round nets to nothing (see absorb). kNN answers are then merged to
//     the exact global top-k at the router (see knn.go).
//
// The Engine satisfies core.Processor and is a drop-in replacement for
// *core.Engine behind internal/server. Like the core engine it is not
// safe for concurrent use; callers serialize access. With Rows = Cols =
// 1 it degenerates to a single engine behind a thin router.
package shard

import (
	"fmt"
	"math"
	"sync"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// Options configures a sharded engine.
type Options struct {
	// Core configures each per-tile engine. Core.Bounds is the global
	// monitored space; each tile engine receives a copy whose Region is
	// the tile's rectangle expanded by the halo, one global grid cell
	// (max bounds extent / Core.GridN). Core.Region must be unset (the
	// router owns it). Required.
	Core core.Options

	// Rows, Cols shape the tile grid. Both default to 1.
	Rows, Cols int
}

func (o *Options) withDefaults() (Options, error) {
	out := *o
	if out.Rows == 0 {
		out.Rows = 1
	}
	if out.Cols == 0 {
		out.Cols = 1
	}
	if out.Rows < 1 || out.Cols < 1 {
		return out, fmt.Errorf("shard: Options.Rows and Cols must be positive, got %d x %d", out.Rows, out.Cols)
	}
	if out.Core.Region != (geo.Rect{}) && out.Core.Region != out.Core.Bounds {
		return out, fmt.Errorf("shard: Options.Core.Region is owned by the router, leave it unset")
	}
	// Resolve the core defaults once, up front: the router needs the
	// effective GridN (the halo), PredictiveHorizon and MaxSpeed
	// (swept-region routing) before any tile engine exists.
	c, err := out.Core.Normalized()
	if err != nil {
		return out, err
	}
	out.Core = c
	return out, nil
}

// Split factors a shard count into the most square Rows×Cols tile grid
// whose product is exactly n (7 shards become 1×7; 12 become 3×4).
func Split(n int) (rows, cols int) {
	if n < 1 {
		return 1, 1
	}
	r := int(math.Sqrt(float64(n)))
	for r > 1 && n%r != 0 {
		r--
	}
	return r, n / r
}

// objInfo is the router's record of one object: which tile owns it and
// its last full report (used for migration detection and kNN merge
// distances).
type objInfo struct {
	tile int
	last core.ObjectUpdate
}

// queryInfo is the router's record of one query: what the kNN merge
// needs of its definition, the tiles currently holding a replica, and
// the globally merged membership and answer, each an ascending ObjectID
// slice.
type queryInfo struct {
	id   core.QueryID
	kind core.QueryKind
	t    float64 // KNN: report time, for replicas the fixpoint adds

	focal  geo.Point // KNN focal point
	k      int       // KNN cardinality
	radius float64   // KNN: distance to the current global k-th member

	// coverage is the sorted set of tiles holding a replica of this
	// query. Invariant: every replica receives every subsequent update
	// of the query, so replicas never go stale.
	coverage []int

	// answer is the merged global answer. For Range and PredictiveRange
	// queries it is the fold's membership: the union of what the
	// replicas report, each object owned by exactly one tile. For KNN
	// queries it is the exact global top-k that settleKNN ranks out of
	// cands.
	answer []core.ObjectID

	// cands is a KNN query's merged candidate set, the fold's membership
	// for that kind: the union of the replicas' local top-k. Empty for
	// other kinds.
	cands []core.ObjectID
}

// covHas reports whether sorted coverage contains tile t.
func covHas(cov []int, t int) bool {
	lo, hi := 0, len(cov)
	for lo < hi {
		mid := (lo + hi) / 2
		if cov[mid] < t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(cov) && cov[lo] == t
}

// unionSorted merges sorted b into sorted a, deduplicating, appending
// to dst (which may be a[:0] only if a and dst do not alias — callers
// pass a fresh dst).
func unionSorted(dst, a, b []int) []int {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst = append(dst, a[i])
			i++
		case a[i] > b[j]:
			dst = append(dst, b[j])
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	dst = append(dst, a[i:]...)
	dst = append(dst, b[j:]...)
	return dst
}

// Engine is the sharded processor. See the package documentation.
type Engine struct {
	opt   Options
	halo  float64 // margin around each tile's rectangle: one global grid cell
	tileW float64 // tile width and height (the kNN pad)
	tileH float64

	tiles []Tile     // by tile id
	rects []geo.Rect // each tile's owned rectangle (partition cell)

	objCount []int // objects owned per tile id

	objs map[core.ObjectID]*objInfo
	qrys map[core.QueryID]*queryInfo

	// candKNN is the reverse candidacy index: for each object, the KNN
	// queries holding it as a merge candidate. An object report must
	// re-rank those queries even when no tile emits a membership
	// change (a candidate moving within its tile's local top-k changes
	// global distances silently).
	candKNN map[core.ObjectID]map[core.QueryID]struct{}

	batch    core.Batch       // the reports buffered for the next Step
	retired  [][]core.QueryID // by tile: replicas to remove at the next Step
	covBuf   []int            // coverage scratch, reused per query update
	covBuf2  []int            // second coverage scratch (kNN union)
	batchBuf [][]core.Update  // broadcast scratch
	merge    mergeState       // step scratch, reused across Steps

	stats core.Stats
	m     *shardMetrics

	closeOnce sync.Once
}

var _ core.Processor = (*Engine)(nil)

// New constructs a sharded engine over opt.Core.Bounds with in-process
// tiles.
func New(opt Options) (*Engine, error) {
	return NewWithTiles(opt, nil)
}

// NewWithTiles constructs a sharded engine whose tile transports come
// from factory; a nil factory yields the in-process tiles New uses.
// The factory receives each tile's core options with Region already set
// to the tile's halo-expanded rectangle. The router's routing and
// merge logic is the same whatever the factory, so the merged update
// stream is too.
func NewWithTiles(opt Options, factory TileFactory) (*Engine, error) {
	o, err := opt.withDefaults()
	if err != nil {
		return nil, err
	}
	b := o.Core.Bounds
	e := &Engine{
		opt:     o,
		halo:    math.Max(b.Width(), b.Height()) / float64(o.Core.GridN),
		objs:    make(map[core.ObjectID]*objInfo),
		qrys:    make(map[core.QueryID]*queryInfo),
		candKNN: make(map[core.ObjectID]map[core.QueryID]struct{}),
		m:       newShardMetrics(o.Core.Metrics, o.Core.Clock),
	}
	if factory == nil {
		factory = func(_ int, opt core.Options) (Tile, error) {
			// Every tile engine resolves the same "engine.*" names against
			// the shared registry, so engine metrics aggregate across tiles.
			return newLocalTile(opt, e.m.tracer)
		}
	}
	e.tileW = b.Width() / float64(o.Cols)
	e.tileH = b.Height() / float64(o.Rows)
	for r := 0; r < o.Rows; r++ {
		for c := 0; c < o.Cols; c++ {
			rect := geo.Rect{
				MinX: b.MinX + float64(c)*e.tileW,
				MinY: b.MinY + float64(r)*e.tileH,
				MaxX: b.MinX + float64(c+1)*e.tileW,
				MaxY: b.MinY + float64(r+1)*e.tileH,
			}
			// Pin the outer edges to the exact bounds: tile ownership
			// treats the global boundary as closed, which requires the
			// boundary tiles' edges to compare equal to it.
			if c == o.Cols-1 {
				rect.MaxX = b.MaxX
			}
			if r == o.Rows-1 {
				rect.MaxY = b.MaxY
			}
			t, err := factory(len(e.tiles), e.tileOptions(rect))
			if err != nil {
				e.Close()
				return nil, err
			}
			e.tiles = append(e.tiles, t)
			e.rects = append(e.rects, rect)
		}
	}
	e.objCount = make([]int, len(e.tiles))
	e.retired = make([][]core.QueryID, len(e.tiles))
	e.m.tiles.Set(int64(len(e.tiles)))
	return e, nil
}

// NewN constructs a sharded engine with n tiles arranged by Split.
func NewN(opt core.Options, n int) (*Engine, error) {
	rows, cols := Split(n)
	return New(Options{Core: opt, Rows: rows, Cols: cols})
}

// MustNew is New that panics on configuration errors, for tests and
// examples.
func MustNew(opt Options) *Engine {
	e, err := New(opt)
	if err != nil {
		panic(err)
	}
	return e
}

// Close stops every tile transport. The engine must not be used
// afterwards. It is idempotent and safe on a partially constructed
// engine.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		for _, t := range e.tiles {
			t.Close()
		}
	})
	return nil
}

// NumTiles returns the number of tiles (shards).
func (e *Engine) NumTiles() int { return len(e.tiles) }

// tileOptions derives the core options of a tile engine serving rect:
// the engine's Region is the rectangle grown by the halo, clipped to
// the global bounds.
func (e *Engine) tileOptions(rect geo.Rect) core.Options {
	o := e.opt.Core
	if region, ok := rect.Expand(e.halo).Intersect(o.Bounds); ok {
		o.Region = region
	}
	return o
}

// clampToBounds clamps a point into the monitored space componentwise.
func (e *Engine) clampToBounds(p geo.Point) geo.Point {
	b := e.opt.Core.Bounds
	if p.X < b.MinX {
		p.X = b.MinX
	} else if p.X > b.MaxX {
		p.X = b.MaxX
	}
	if p.Y < b.MinY {
		p.Y = b.MinY
	} else if p.Y > b.MaxY {
		p.Y = b.MaxY
	}
	return p
}

// ownsPoint reports whether a tile rectangle owns a (bounds-clamped)
// point. Ownership is half-open — a point on a shared MaxX/MaxY edge
// belongs to the neighbor — except at the global boundary, which is
// closed so clamped out-of-bounds reports have an owner.
func (e *Engine) ownsPoint(r geo.Rect, p geo.Point) bool {
	b := e.opt.Core.Bounds
	if p.X < r.MinX || p.X > r.MaxX || p.Y < r.MinY || p.Y > r.MaxY {
		return false
	}
	if p.X == r.MaxX && r.MaxX != b.MaxX {
		return false
	}
	if p.Y == r.MaxY && r.MaxY != b.MaxY {
		return false
	}
	return true
}

// tileOf returns the id of the tile owning a point.
func (e *Engine) tileOf(p geo.Point) int {
	p = e.clampToBounds(p)
	for id, r := range e.rects {
		if e.ownsPoint(r, p) {
			return id
		}
	}
	// The rectangles partition the bounds exactly (neighbours compute
	// their shared edge from the same expression), so this is
	// unreachable; guard against float pathology with the nearest tile,
	// deterministically.
	best, bd := 0, math.Inf(1)
	for id, r := range e.rects {
		if d := r.MinDist2(p); d < bd {
			bd, best = d, id
		}
	}
	return best
}

// tilesOverlapping appends to dst (sorted) every tile a region can
// share an owned object with. The region is clamped into bounds
// componentwise first: clamping is monotone, so the owner tile of any
// (clamped) location the region contains always intersects the clamped
// image.
func (e *Engine) tilesOverlapping(r geo.Rect, dst []int) []int {
	if !r.Valid() {
		return dst
	}
	lo := e.clampToBounds(geo.Pt(r.MinX, r.MinY))
	hi := e.clampToBounds(geo.Pt(r.MaxX, r.MaxY))
	cr := geo.Rect{MinX: lo.X, MinY: lo.Y, MaxX: hi.X, MaxY: hi.Y}
	for id, r := range e.rects {
		if r.Intersects(cr) {
			dst = append(dst, id)
		}
	}
	return dst
}

// knnCoverage appends the tiles a kNN query must be replicated to for a
// focal circle of the given radius, padded by one tile width so
// small circle growth does not force a re-replication every step. The
// pad is a replication-churn damper, not a correctness bound —
// settleKNN's fixpoint supplies that.
func (e *Engine) knnCoverage(focal geo.Point, radius float64, dst []int) []int {
	pad := math.Max(e.tileW, e.tileH)
	return e.tilesOverlapping(geo.RectAround(focal, radius+pad), dst)
}

// predictiveCoverage appends the tiles a predictive range query must be
// replicated to. With a MaxSpeed cap, an object's trajectory over the
// validity window [T, T+PredictiveHorizon] stays within
// MaxSpeed·PredictiveHorizon of its reported location, so only tiles
// overlapping the region grown by that reach (plus the halo, covering
// the ownership slack of boundary-clamped reports) can own an object
// whose predicted motion intersects the region. Without a cap any tile
// can, so the query replicates everywhere.
func (e *Engine) predictiveCoverage(region geo.Rect, dst []int) []int {
	ms := e.opt.Core.MaxSpeed
	if ms <= 0 {
		for id := range e.tiles {
			dst = append(dst, id)
		}
		return dst
	}
	reach := ms*e.opt.Core.PredictiveHorizon + e.halo
	return e.tilesOverlapping(region.Expand(reach), dst)
}

// farOut is the pseudo-infinity used when extending a tile's clip
// rectangle past the global boundary: clamped ownership maps every
// out-of-bounds raw location onto the boundary tiles, whose clip must
// therefore admit arbitrary raw coordinates on that side. Finite so
// grid arithmetic stays well-behaved.
const farOut = 1e12

// clipRegion clips a range query's region to a tile's halo-expanded
// extent, extending any side that touches the global boundary to
// ±farOut. For every object owned by the tile, raw-location membership
// in the clipped region is equivalent to membership in the full region
// (an owned object's raw location always lies inside the extended
// extent — in-bounds coordinates fall in the tile's range, out-of-bounds
// ones clamp onto a boundary side, which is extended), so the replica's
// local answer is exactly the full query's answer restricted to the
// tile's objects.
func (e *Engine) clipRegion(region geo.Rect, tile int) geo.Rect {
	c := e.rects[tile].Expand(e.halo)
	b := e.opt.Core.Bounds
	if c.MinX <= b.MinX {
		c.MinX = -farOut
	}
	if c.MinY <= b.MinY {
		c.MinY = -farOut
	}
	if c.MaxX >= b.MaxX {
		c.MaxX = farOut
	}
	if c.MaxY >= b.MaxY {
		c.MaxY = farOut
	}
	out, ok := region.Intersect(c)
	if !ok {
		// Unreachable for covered tiles (coverage implies overlap of the
		// clamped region, which the extended extent contains); forwarding
		// the full region is always sound — clipping is an optimization.
		return region
	}
	return out
}

// stepTiles runs Step(now) on the given tiles in parallel and returns
// their update batches in tile order. Used by the kNN settle fixpoint.
func (e *Engine) stepTiles(tiles []int, now float64) [][]core.Update {
	for _, t := range tiles {
		e.m.queueDepth.Observe(int64(e.tiles[t].Pending()))
		e.tiles[t].StepBegin(now)
	}
	out := e.batchBuf[:0]
	for _, t := range tiles {
		out = append(out, e.tiles[t].StepWait())
	}
	e.batchBuf = out
	return out
}

// stepAll runs Step(now) on every tile in parallel, recording each
// tile's queue depth at broadcast time and, when a clock is configured,
// the broadcast's step skew (slowest minus fastest tile).
func (e *Engine) stepAll(now float64) [][]core.Update {
	for _, t := range e.tiles {
		e.m.queueDepth.Observe(int64(t.Pending()))
		t.StepBegin(now)
	}
	out := e.batchBuf[:0]
	for _, t := range e.tiles {
		out = append(out, t.StepWait())
	}
	e.batchBuf = out
	if e.m.tracer.Enabled() && len(e.tiles) > 1 {
		lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
		for _, t := range e.tiles {
			ns := t.StepNanos()
			lo, hi = min(lo, ns), max(hi, ns)
		}
		e.m.stepSkew.Observe(hi - lo)
	}
	return out
}
