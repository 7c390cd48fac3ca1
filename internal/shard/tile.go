package shard

import (
	"cqp/internal/core"
	"cqp/internal/obs"
)

// Tile is the router's transport to one tile engine. The default
// implementation (localTile) drives a core.Engine on a dedicated worker
// goroutine; a TileFactory passed to NewWithTiles supplies another, as
// the benchmark's traced tiles do to record each tile step. The merge
// logic, and therefore the canonical merged update stream, is the same
// whichever transport the tiles use.
//
// The router calls ReportObject/ReportQuery to buffer reports, then
// broadcasts an evaluation with StepBegin on every participating tile
// followed by StepWait on each; the two-phase split is what runs tiles
// in parallel. A Tile must never fail a step: StepWait returns the
// exact batch its engine produced.
//
// Like the engines, a Tile's step cycle is driven by one goroutine (the
// router); StepBegin/StepWait calls are never concurrent for one tile.
type Tile interface {
	// ReportObject buffers an object update for the next step.
	ReportObject(core.ObjectUpdate)
	// ReportQuery buffers a query registration, movement, or removal.
	ReportQuery(core.QueryUpdate)
	// Pending returns the number of buffered, not yet stepped reports.
	Pending() int
	// StepBegin starts one bulk evaluation of the buffered reports at
	// time now.
	StepBegin(now float64)
	// StepWait blocks until the evaluation started by the last StepBegin
	// completes and returns its incremental updates. The returned slice
	// is owned by the tile and valid until the next StepBegin.
	StepWait() []core.Update
	// StepNanos returns the duration of the last completed step in
	// nanoseconds (0 when no clock drives the tile); the router's
	// step-skew histogram reads it after StepWait.
	StepNanos() int64
	// WorkStats returns the tile's cumulative work ledger, never
	// decreasing; the router adds its work counters into Stats.
	WorkStats() core.Stats
	// Close releases the tile's resources; the tile must not be used
	// afterwards.
	Close() error
}

// TileFactory constructs the transport for one tile. New passes the
// tile index and the per-tile core options: the global Bounds, and
// Region set to the tile's rectangle grown by the halo and clipped to
// those bounds.
type TileFactory func(tile int, opt core.Options) (Tile, error)

// localTile is one in-process tile: its engine and the goroutine
// driving it. The router owns the engine between steps (buffering
// reports is plain method calls); during a step the worker goroutine
// owns it. The cmd send and res receive establish the happens-before
// edges that make the handoff race-free.
type localTile struct {
	eng *core.Engine
	cmd chan float64
	res chan []core.Update

	// buf is the worker-owned update buffer, reused across steps via
	// StepAppend. Reuse is race-free: the router fully absorbs a batch
	// (copying every update into the merge state) before it can step
	// the same tile again, and the cmd/res channel pair orders the
	// buffer handoff both ways.
	buf []core.Update

	// tracer and lastNs feed the router's step-skew histogram: the
	// worker stamps each step's duration, the router reads it after the
	// res receive (the channel provides the happens-before edge).
	tracer *obs.Tracer
	lastNs int64
}

// newLocalTile starts a tile worker goroutine over a fresh core.Engine.
func newLocalTile(opt core.Options, tracer *obs.Tracer) (*localTile, error) {
	eng, err := core.NewEngine(opt)
	if err != nil {
		return nil, err
	}
	w := &localTile{
		eng:    eng,
		cmd:    make(chan float64),
		res:    make(chan []core.Update, 1),
		tracer: tracer,
	}
	go w.run()
	return w, nil
}

func (w *localTile) run() {
	for now := range w.cmd {
		begin := w.tracer.Begin()
		w.buf = w.eng.StepAppend(w.buf[:0], now)
		w.lastNs = w.tracer.Since(begin)
		w.res <- w.buf
	}
}

func (w *localTile) ReportObject(u core.ObjectUpdate) { w.eng.ReportObject(u) }
func (w *localTile) ReportQuery(u core.QueryUpdate)   { w.eng.ReportQuery(u) }
func (w *localTile) Pending() int                     { return w.eng.Pending() }
func (w *localTile) StepBegin(now float64)            { w.cmd <- now }
func (w *localTile) StepWait() []core.Update          { return <-w.res }
func (w *localTile) StepNanos() int64                 { return w.lastNs }
func (w *localTile) WorkStats() core.Stats            { return w.eng.Stats() }

// Close stops the worker goroutine. The tile must not be used
// afterwards.
func (w *localTile) Close() error {
	close(w.cmd)
	return nil
}
