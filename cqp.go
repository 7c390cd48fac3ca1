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
// # Multiple cores
//
// An Engine spreads each step's join over the CPUs the Go runtime may
// use (GOMAXPROCS): helper goroutines gather the work in chunks while
// the stepping goroutine applies their findings in order, so the
// update stream is the same at any CPU count.
//
// The root package re-exports the engine (internal/core), the geometry
// kernel (internal/geo), the network layer (internal/server,
// internal/client), and the road-network workload generator
// (internal/roadnet, internal/gen). Examples under examples/ and the
// experiment harness under cmd/cqp-bench exercise the full surface.
package cqp

import (
	"net/http"
	"time"

	"cqp/internal/client"
	"cqp/internal/core"
	"cqp/internal/gen"
	"cqp/internal/geo"
	"cqp/internal/obs"
	"cqp/internal/roadnet"
	"cqp/internal/server"
)

// Geometry kernel.
type (
	// Point is a location in the plane.
	Point = geo.Point
	// Vector is a displacement or velocity.
	Vector = geo.Vector
	// Rect is an axis-aligned rectangle.
	Rect = geo.Rect
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
)

// Engine types.
type (
	// Engine is the shared incremental continuous query processor.
	Engine = core.Engine
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
	// Update is one incremental answer update (Q, ±A).
	Update = core.Update
	// ObjectUpdate is a buffered object report.
	ObjectUpdate = core.ObjectUpdate
	// QueryUpdate is a buffered query report.
	QueryUpdate = core.QueryUpdate
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

// ApplyUpdates replays an update stream onto a client-side answer set.
func ApplyUpdates(answer map[ObjectID]struct{}, updates []Update, q QueryID) {
	core.ApplyUpdates(answer, updates, q)
}

// ChecksumIDs returns the order-independent answer checksum used by the
// recovery handshake.
func ChecksumIDs(ids []ObjectID) uint64 { return core.ChecksumIDs(ids) }

// Network layer: the location-aware TCP server and its client library.
type (
	// Server is a running location-aware server.
	Server = server.Server
	// ServerConfig parameterizes Listen.
	ServerConfig = server.Config
	// Client is a connection to a location-aware server.
	Client = client.Client
	// Event is a client-side notification (updates, recovery, full
	// answer, disconnection, commit acknowledgment).
	Event = client.Event
	// EventKind discriminates Events.
	EventKind = client.EventKind
)

// Client event kinds.
const (
	// EventUpdates is a routine incremental batch.
	EventUpdates = client.EventUpdates
	// EventRecovered is the diff completing an out-of-sync recovery.
	EventRecovered = client.EventRecovered
	// EventFullAnswer is a complete answer (recovery fallback).
	EventFullAnswer = client.EventFullAnswer
	// EventDisconnected reports a dead connection.
	EventDisconnected = client.EventDisconnected
	// EventCommitted acknowledges a commit.
	EventCommitted = client.EventCommitted
	// EventStats carries a server-statistics response.
	EventStats = client.EventStats
	// EventReconnectFailed reports exhausted automatic reconnection.
	EventReconnectFailed = client.EventReconnectFailed
)

// ClientOptions parameterizes DialOptions (automatic reconnection,
// retry backoff, read deadlines, custom dialers).
type ClientOptions = client.Options

// RetryPolicy shapes the jittered exponential backoff of automatic
// client reconnection.
type RetryPolicy = client.RetryPolicy

// Listen starts a location-aware server on addr.
func Listen(addr string, cfg ServerConfig) (*Server, error) { return server.Listen(addr, cfg) }

// Dial connects a client to a running server.
func Dial(addr string) (*Client, error) { return client.Dial(addr) }

// DialOptions connects a client with explicit lifecycle options.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	return client.DialOptions(addr, opts)
}

// Observability layer (internal/obs): an allocation-free metrics
// registry plus clock-injected step tracing. Pass a registry through
// Options.Metrics (engine tier), ServerConfig.Metrics (all tiers behind
// a server), or ClientOptions.Metrics (subscriber library), then serve
// it with MetricsHandler or snapshot it directly.
type (
	// MetricsRegistry names and holds counters, gauges, and histograms
	// and renders deterministic snapshots.
	MetricsRegistry = obs.Registry
)

// NewMetricsRegistry returns an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// MetricsHandler serves a registry over HTTP: a JSON snapshot at
// /metrics plus net/http/pprof under /debug/pprof/. It is what
// cqp-server's -metrics flag mounts.
func MetricsHandler(r *MetricsRegistry) http.Handler { return obs.Handler(r) }

// MetricsLogLoop periodically logs compact JSON snapshots of r through
// logf until stop is closed.
func MetricsLogLoop(r *MetricsRegistry, interval time.Duration, logf func(format string, args ...any), stop <-chan struct{}) {
	obs.LogLoop(r, interval, logf, stop)
}

// Workload generation: the Brinkhoff-style network-based generator the
// benchmarks (and the paper's evaluation) run on.
type (
	// RoadNetwork is a synthetic city road network.
	RoadNetwork = roadnet.Network
	// RoadNetworkConfig parameterizes GenerateRoadNetwork.
	RoadNetworkConfig = roadnet.Config
	// World is a population of network-constrained moving objects.
	World = gen.World
	// WorldConfig parameterizes NewWorld.
	WorldConfig = gen.Config
	// Workload drives an engine with the paper's evaluation setup.
	Workload = gen.Workload
)

// Road classes.
const (
	// SideRoad is a dense, slow side street.
	SideRoad = roadnet.Side
	// MainRoad is a faster arterial.
	MainRoad = roadnet.Main
	// HighwayRoad is the fastest class.
	HighwayRoad = roadnet.Highway
)

// GenerateRoadNetwork builds a deterministic synthetic city network.
func GenerateRoadNetwork(cfg RoadNetworkConfig) *RoadNetwork { return roadnet.Generate(cfg) }

// NewWorld creates a moving-object population on a road network.
func NewWorld(cfg WorldConfig) (*World, error) { return gen.NewWorld(cfg) }

// MustNewWorld is NewWorld that panics on configuration errors.
func MustNewWorld(cfg WorldConfig) *World { return gen.MustNewWorld(cfg) }

// NewWorkload builds the paper's evaluation workload over a world.
func NewWorkload(w *World, numQueries int, querySide float64, seed int64) *Workload {
	return gen.NewWorkload(w, numQueries, querySide, seed)
}
