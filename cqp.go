// Package cqp is a continuous query processor for spatio-temporal
// databases: a from-scratch implementation of the scalable, incremental
// framework of Mokbel, "Continuous Query Processing in Spatio-temporal
// Databases" (EDBT 2004 Ph.D. workshop; the design later realized as
// SINA).
//
// The processor stores moving objects and continuous queries together in
// one shared grid and evaluates all outstanding queries as a periodic
// bulk spatial join. Its output is incremental: positive updates (Q, +A)
// and negative updates (Q, −A) that transform each query's previously
// reported answer into the current one, rather than complete answers.
//
// # Quick start
//
//	e := cqp.MustNewEngine(cqp.Options{Bounds: cqp.R(0, 0, 100, 100)})
//	e.ReportObject(cqp.ObjectUpdate{ID: 1, Kind: cqp.Moving, Loc: cqp.Pt(10, 10)})
//	e.ReportQuery(cqp.QueryUpdate{ID: 1, Kind: cqp.Range, Region: cqp.R(5, 5, 15, 15)})
//	for _, u := range e.Step(0) {
//		fmt.Println(u) // (Q1, +O1)
//	}
//
// # Sharding
//
// Both the single Engine and the spatially sharded engine satisfy the
// Processor interface. NewShardedEngine partitions the space into an
// R×C tile grid with one engine per tile evaluating in parallel and a
// router merging the per-tile streams into the same exact global answer
// stream — a drop-in replacement for the Engine, which itself spreads a
// large step's join over the CPUs:
//
//	p, err := cqp.NewShardedEngine(cqp.Options{Bounds: cqp.R(0, 0, 100, 100)}, 4)
//	defer p.Close()
//
// The router adapts the grid to load as it runs: every 16 steps it
// splits a tile whose report queue is more than twice the mean, up to
// four times the initial tile count, or merges two cold sibling halves
// back. The decision reads only the reports, so it never depends on
// whether metrics are on, and balanced load never repartitions.
//
// The network server selects the implementation with its Shards config
// knob (cmd/cqp-server -shards).
//
// The root package re-exports the engine (internal/core), the geometry
// kernel (internal/geo), the network layer (internal/server,
// internal/client), and the road-network workload generator
// (internal/roadnet, internal/gen). Examples under examples/ and the
// experiment harness under cmd/cqp-bench exercise the full surface.
package cqp

import (
	"cqp/internal/core"
	"cqp/internal/geo"
	"cqp/internal/shard"
)

// Geometry kernel.
type (
	// Point is a location in the plane.
	Point = geo.Point
	// Vector is a displacement or velocity.
	Vector = geo.Vector
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
	// Circle is a disk.
	Circle = geo.Circle
	// Segment is a line segment.
	Segment = geo.Segment
	// Motion is a time-parameterized linear movement.
	Motion = geo.Motion
)

// Geometry constructors, re-exported for convenience.
var (
	// Pt constructs a Point.
	Pt = geo.Pt
	// Vec constructs a Vector.
	Vec = geo.Vec
	// R constructs a normalized Rect from two corners.
	R = geo.R
	// RectAt constructs the square of a given side centered at a point.
	RectAt = geo.RectAt
	// RectAround constructs the bounding square of a circle.
	RectAround = geo.RectAround
)

// Engine types.
type (
	// Engine is the shared incremental continuous query processor.
	Engine = core.Engine
	// Processor is the evaluation contract satisfied by both the single
	// Engine and the sharded engine.
	Processor = core.Processor
	// ShardedEngine partitions the space into parallel per-tile engines
	// behind the Processor interface.
	ShardedEngine = shard.Engine
	// Protocol layers the out-of-sync client protocol (Commit, Recover,
	// committed answers) over any Processor.
	Protocol = core.Protocol
	// ShardOptions configures a ShardedEngine: the tile engines' Options
	// and the initial tile grid's shape.
	ShardOptions = shard.Options
	// Options configures an Engine.
	Options = core.Options
	// Stats is the engine's per-phase work ledger.
	Stats = core.Stats
	// ObjectID identifies an object.
	ObjectID = core.ObjectID
	// QueryID identifies a continuous query.
	QueryID = core.QueryID
	// ObjectKind classifies objects (Stationary, Moving, Predictive).
	ObjectKind = core.ObjectKind
	// QueryKind classifies queries (Range, KNN, PredictiveRange).
	QueryKind = core.QueryKind
	// Update is one incremental answer update (Q, ±A).
	Update = core.Update
	// ObjectUpdate is a buffered object report.
	ObjectUpdate = core.ObjectUpdate
	// QueryUpdate is a buffered query report.
	QueryUpdate = core.QueryUpdate
	// Snapshot is a complete answer of one query.
	Snapshot = core.Snapshot
)

// Object kinds.
const (
	// Stationary objects never move.
	Stationary = core.Stationary
	// Moving objects report sampled locations.
	Moving = core.Moving
	// Predictive objects report location plus velocity.
	Predictive = core.Predictive
)

// Query kinds.
const (
	// Range is a continuous rectangular range query.
	Range = core.Range
	// KNN is a continuous k-nearest-neighbor query.
	KNN = core.KNN
	// PredictiveRange is a range query over a future time window.
	PredictiveRange = core.PredictiveRange
)

// NewEngine constructs an engine over the given space.
func NewEngine(opt Options) (*Engine, error) { return core.NewEngine(opt) }

// MustNewEngine is NewEngine that panics on configuration errors.
func MustNewEngine(opt Options) *Engine { return core.MustNewEngine(opt) }

// NewShardedEngine constructs a spatially sharded processor over the
// given space with n tile shards (arranged into the most square R×C
// grid whose product is n), each evaluated by its own goroutine. Close
// it when done to stop the workers.
func NewShardedEngine(opt Options, n int) (*ShardedEngine, error) {
	return shard.NewN(opt, n)
}

// NewProtocol wraps a Processor that has not seen any report yet in the
// out-of-sync client protocol.
func NewProtocol(p Processor) *Protocol { return core.NewProtocol(p) }

// ApplyUpdates replays an update stream onto a client-side answer set.
func ApplyUpdates(answer map[ObjectID]struct{}, updates []Update, q QueryID) {
	core.ApplyUpdates(answer, updates, q)
}

// ChecksumIDs returns the order-independent answer checksum used by the
// recovery handshake.
func ChecksumIDs(ids []ObjectID) uint64 { return core.ChecksumIDs(ids) }
