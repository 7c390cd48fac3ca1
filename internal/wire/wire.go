// Package wire defines the framed binary protocol between the
// location-aware server and its clients.
//
// Every message is framed as
//
//	uint32 payload length | uint8 message type | payload
//
// with all integers little endian. The protocol is deliberately small:
// clients push object/query reports upstream; the server pushes
// incremental update batches downstream; and a three-message handshake
// (Commit, Wakeup, RecoveryDiff/FullAnswer) implements out-of-sync client
// recovery with a checksum guard.
package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// MsgType discriminates protocol messages.
type MsgType uint8

// Protocol message types.
const (
	// MsgObjectReport (client→server): an object location/velocity report
	// or removal.
	MsgObjectReport MsgType = iota + 1
	// MsgQueryReport (client→server): query registration, movement, or
	// removal. The connection is subscribed to the query's updates.
	MsgQueryReport
	// MsgCommit (client→server): the client acknowledges having applied
	// the stream for a query; carries the checksum of its answer.
	MsgCommit
	// MsgWakeup (client→server): an out-of-sync client reconnects,
	// carrying the checksum of its rolled-back (last committed) answer.
	MsgWakeup
	// MsgUpdateBatch (server→client): incremental positive/negative
	// updates from one evaluation step.
	MsgUpdateBatch
	// MsgRecoveryDiff (server→client): incremental updates that carry a
	// recovering client from its committed answer to the current one.
	MsgRecoveryDiff
	// MsgFullAnswer (server→client): a complete answer; the recovery
	// fallback when checksums disagree (and the naive baseline's only
	// message).
	MsgFullAnswer
	// MsgCommitAck (server→client): the commit was accepted; the client's
	// snapshot now matches the server's committed answer.
	MsgCommitAck
	// MsgStatsRequest (client→server): ask for server statistics.
	MsgStatsRequest
	// MsgStatsResponse (server→client): engine counters and population
	// sizes.
	MsgStatsResponse
	// MsgHeartbeat (both directions): liveness probe. The server sends it
	// periodically; the client echoes it so per-session read deadlines
	// see traffic from live peers. The cluster coordinator reuses it on
	// worker links for deadline-based death detection.
	MsgHeartbeat

	// Cluster control frames (internal/cluster, coordinator ⇄ tile
	// worker). Unlike the client protocol — where a corrupted answer is
	// caught end-to-end by the commit/wakeup checksum handshake — a
	// corrupted tile batch would silently poison the coordinator's merged
	// stream, so every cluster payload carries a trailing FNV-1a checksum
	// of its own bytes; a mismatch fails the decode, the link is torn
	// down, and the tile is resynced from the coordinator's journal.

	// MsgClusterHello (worker→coordinator): the worker process announces
	// itself after dialing in.
	MsgClusterHello
	// MsgClusterAssign (coordinator→worker): host a tile engine with the
	// given core options under the given epoch.
	MsgClusterAssign
	// MsgClusterStep (coordinator→worker): apply the carried reports to
	// one tile and evaluate it at the carried time.
	MsgClusterStep
	// MsgClusterStepResult (worker→coordinator): one tile evaluation's
	// incremental updates plus the engine's cumulative work counters.
	MsgClusterStepResult
	// MsgClusterResync (coordinator→worker): rebuild a tile engine from
	// the carried compacted state (latest report per object, live query
	// replicas) and re-establish its membership at LastStep.
	MsgClusterResync
	// MsgClusterResyncAck (worker→coordinator): the tile was rebuilt;
	// Checksum folds the rebuilt replica answers so the coordinator can
	// verify the worker's state before routing to it again.
	MsgClusterResyncAck
	// MsgClusterRetire (coordinator→worker): a repartition retired the
	// tile; the worker drops its engine. Tile ids are never reused, so
	// no epoch race can resurrect a retired tile.
	MsgClusterRetire
)

// MaxPayload bounds a message payload; it accommodates a full answer over
// every object of a paper-scale run with room to spare.
const MaxPayload = 64 << 20

// maxPrealloc bounds the buffer allocated before any payload bytes have
// actually arrived. A hostile length prefix therefore cannot force a
// large allocation: buffers beyond this size grow only as fast as the
// peer delivers real bytes.
const maxPrealloc = 64 << 10

// Errors.
var (
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxPayload")
	ErrUnknownType   = errors.New("wire: unknown message type")
	// ErrClusterChecksum marks a cluster control frame whose payload
	// checksum does not match: corruption in transit. The link carrying
	// it cannot be trusted and must be torn down.
	ErrClusterChecksum = errors.New("wire: cluster frame checksum mismatch")
)

// ObjectReport is the payload of MsgObjectReport.
type ObjectReport struct {
	Update core.ObjectUpdate
}

// QueryReport is the payload of MsgQueryReport.
type QueryReport struct {
	Update core.QueryUpdate
}

// Commit is the payload of MsgCommit.
type Commit struct {
	Query    core.QueryID
	Checksum uint64
}

// Wakeup is the payload of MsgWakeup. It carries the full query
// definition so a server that lost the query (restart) can re-register it
// transparently; a server that still knows the query ignores the
// definition and keeps its committed state intact.
type Wakeup struct {
	Update   core.QueryUpdate
	Checksum uint64
}

// UpdateBatch is the payload of MsgUpdateBatch and MsgRecoveryDiff.
type UpdateBatch struct {
	Time    float64
	Updates []core.Update
}

// FullAnswer is the payload of MsgFullAnswer.
type FullAnswer struct {
	Query   core.QueryID
	Time    float64
	Objects []core.ObjectID
}

// CommitAck is the payload of MsgCommitAck.
type CommitAck struct {
	Query    core.QueryID
	Checksum uint64
}

// StatsRequest is the (empty) payload of MsgStatsRequest.
type StatsRequest struct{}

// Heartbeat is the payload of MsgHeartbeat.
type Heartbeat struct {
	Time float64 // sender clock, seconds
}

// StatsResponse is the payload of MsgStatsResponse.
type StatsResponse struct {
	Stats   core.Stats
	Objects uint32
	Queries uint32
	Uptime  float64 // server clock, seconds
}

// ClusterHello is the payload of MsgClusterHello: a freshly spawned (or
// respawned) worker process announcing itself on its coordinator link.
type ClusterHello struct {
	Worker uint32 // worker slot, assigned by the coordinator at spawn
	// Incarnation distinguishes successive processes in the same slot
	// (restart observability; the per-tile Epoch is what gates frames).
	Incarnation uint64
}

// ClusterAssign is the payload of MsgClusterAssign: the engine
// parameters of one tile. The semantic options must match the
// coordinator's exactly or the merged stream would diverge; Region is
// the tile's sub-rectangle of Bounds (zero value: the full bounds) so
// a remote tile builds the same tile-local grid the coordinator's
// router assumes.
type ClusterAssign struct {
	Tile  uint32
	Epoch uint64 // current tile epoch; stamped on all subsequent frames

	Bounds            geo.Rect
	GridN             uint32
	PredictiveHorizon float64
	Region            geo.Rect // tile bounds + halo; zero = full Bounds
	MaxSpeed          float64  // swept-region routing bound (0: disabled)
}

// ClusterStep is the payload of MsgClusterStep: the reports routed to
// one tile this evaluation plus the evaluation timestamp — one frame
// per tile per (sub-)step, so a step costs one round trip.
type ClusterStep struct {
	Tile    uint32
	Epoch   uint64
	Time    float64
	Objects []core.ObjectUpdate
	Queries []core.QueryUpdate
}

// ClusterStepResult is the payload of MsgClusterStepResult: one tile
// evaluation's incremental updates. The work counters are the tile
// engine's cumulative totals, letting the coordinator aggregate
// cross-process Stats without extra round trips.
type ClusterStepResult struct {
	Tile    uint32
	Epoch   uint64
	Time    float64
	Updates []core.Update

	KNNRecomputes   uint64
	CandidateChecks uint64
	RegionEvalCells uint64
}

// ClusterResync is the payload of MsgClusterResync: the compacted
// authoritative state of one tile — the latest report of every owned
// object and the definition of every live query replica. The worker
// rebuilds a fresh engine, replays the snapshot, evaluates it at
// LastStep (discarding the resulting batch: the coordinator's merge
// state already reflects those memberships), and acks with a state
// checksum.
type ClusterResync struct {
	Tile  uint32
	Epoch uint64
	// HasStep is false when the tile has never been stepped; LastStep is
	// then meaningless and the rebuild skips the re-establishing step.
	HasStep  bool
	LastStep float64
	Objects  []core.ObjectUpdate
	Queries  []core.QueryUpdate
}

// ClusterResyncAck is the payload of MsgClusterResyncAck. Checksum is
// the fold of the rebuilt tile's replica answers (see
// internal/cluster); the coordinator compares it against its own
// fallback engine's fold before trusting the worker again.
type ClusterResyncAck struct {
	Tile     uint32
	Epoch    uint64
	Checksum uint64
}

// ClusterRetire is the payload of MsgClusterRetire: a split or merge
// retired the tile, its state has been re-homed onto born tiles, and
// the worker should free the engine. Best-effort — a worker that never
// sees it (death before delivery) merely holds a dead engine until its
// process is recycled.
type ClusterRetire struct {
	Tile  uint32
	Epoch uint64
}

// Message is any decodable protocol message.
type Message interface{ msgType() MsgType }

func (ObjectReport) msgType() MsgType  { return MsgObjectReport }
func (QueryReport) msgType() MsgType   { return MsgQueryReport }
func (Commit) msgType() MsgType        { return MsgCommit }
func (Wakeup) msgType() MsgType        { return MsgWakeup }
func (UpdateBatch) msgType() MsgType   { return MsgUpdateBatch }
func (FullAnswer) msgType() MsgType    { return MsgFullAnswer }
func (CommitAck) msgType() MsgType     { return MsgCommitAck }
func (StatsRequest) msgType() MsgType  { return MsgStatsRequest }
func (StatsResponse) msgType() MsgType { return MsgStatsResponse }
func (Heartbeat) msgType() MsgType     { return MsgHeartbeat }

func (ClusterHello) msgType() MsgType      { return MsgClusterHello }
func (ClusterAssign) msgType() MsgType     { return MsgClusterAssign }
func (ClusterStep) msgType() MsgType       { return MsgClusterStep }
func (ClusterStepResult) msgType() MsgType { return MsgClusterStepResult }
func (ClusterResync) msgType() MsgType     { return MsgClusterResync }
func (ClusterResyncAck) msgType() MsgType  { return MsgClusterResyncAck }
func (ClusterRetire) msgType() MsgType     { return MsgClusterRetire }

// RecoveryDiff wraps an UpdateBatch under the MsgRecoveryDiff type.
type RecoveryDiff UpdateBatch

func (RecoveryDiff) msgType() MsgType { return MsgRecoveryDiff }

// Writer encodes messages onto a stream. Not safe for concurrent use.
type Writer struct {
	w      *bufio.Writer
	buf    []byte
	header [5]byte // a field, not a local: a local escapes through w.w
	size   int     // bytes of the last frame encoded, header included
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriter(w)}
}

// Write encodes one message and flushes it.
func (w *Writer) Write(m Message) error {
	if err := w.WriteBuffered(m); err != nil {
		return err
	}
	return w.Flush()
}

// WriteBuffered encodes one message into the writer's buffer without
// forcing a flush: the frame reaches the wire when the buffer fills or
// Flush is called. Batching writers (the server's per-session outbox
// drain) encode every queued frame back to back and flush once, turning
// N frames into one buffered write. The byte stream is identical to N
// individual Write calls — framing is per message, flushing is not part
// of the encoding.
func (w *Writer) WriteBuffered(m Message) error {
	w.buf = appendMessage(w.buf[:0], m)
	binary.LittleEndian.PutUint32(w.header[0:], uint32(len(w.buf)))
	w.header[4] = byte(m.msgType())
	if _, err := w.w.Write(w.header[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	w.size = len(w.header) + len(w.buf)
	return nil
}

// FrameSize returns the size in bytes, header included, of the frame the
// last successful Write or WriteBuffered encoded: EncodedSize of that
// message, without encoding it again.
func (w *Writer) FrameSize() int { return w.size }

// Flush forces every buffered frame onto the underlying stream.
func (w *Writer) Flush() error {
	if err := w.w.Flush(); err != nil {
		return fmt.Errorf("wire: flush: %w", err)
	}
	return nil
}

// Reader decodes messages from a stream. Not safe for concurrent use.
type Reader struct {
	r      *bufio.Reader
	buf    []byte
	max    uint32
	header [5]byte // a field, not a local: a local escapes through io.ReadFull
	size   int     // bytes of the last frame read, header included
}

// NewReader returns a Reader over r accepting frames up to MaxPayload.
func NewReader(r io.Reader) *Reader {
	return NewReaderLimit(r, MaxPayload)
}

// NewReaderLimit returns a Reader over r rejecting frames whose payload
// exceeds maxFrame bytes (0 means MaxPayload). Servers use a tight limit
// on inbound frames: every legitimate client→server message is small, so
// a large length prefix is hostile and is refused before any allocation.
func NewReaderLimit(r io.Reader, maxFrame uint32) *Reader {
	if maxFrame == 0 || maxFrame > MaxPayload {
		maxFrame = MaxPayload
	}
	return &Reader{r: bufio.NewReader(r), max: maxFrame}
}

// Read decodes the next message. It returns io.EOF at a clean end of
// stream.
func (r *Reader) Read() (Message, error) {
	header := r.header[:]
	if _, err := io.ReadFull(r.r, header); err != nil {
		if errors.Is(err, io.EOF) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: read header: %w", err)
	}
	length := binary.LittleEndian.Uint32(header[0:])
	if length > r.max {
		return nil, fmt.Errorf("%w: %d bytes (limit %d)", ErrFrameTooLarge, length, r.max)
	}
	payload, err := r.readPayload(int(length))
	if err != nil {
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	r.size = len(header) + len(payload)
	return decodeMessage(MsgType(header[4]), payload)
}

// FrameSize returns the size in bytes, header included, of the frame the
// last Read consumed whole (whether or not it decoded): EncodedSize of
// that message, without encoding it again.
func (r *Reader) FrameSize() int { return r.size }

// readPayload returns the next n payload bytes. Buffers up to
// maxPrealloc are allocated outright; larger ones grow chunk by chunk as
// bytes actually arrive, so the length prefix alone never commits memory.
func (r *Reader) readPayload(n int) ([]byte, error) {
	if cap(r.buf) >= n || n <= maxPrealloc {
		if cap(r.buf) < n {
			r.buf = make([]byte, n)
		}
		payload := r.buf[:n]
		if _, err := io.ReadFull(r.r, payload); err != nil {
			return nil, err
		}
		return payload, nil
	}
	buf := r.buf[:0]
	for len(buf) < n {
		chunk := min(n-len(buf), maxPrealloc)
		if cap(buf)-len(buf) < chunk {
			grown := make([]byte, len(buf), min(n, 2*cap(buf)+chunk))
			copy(grown, buf)
			buf = grown
		}
		start := len(buf)
		buf = buf[:start+chunk]
		if _, err := io.ReadFull(r.r, buf[start:]); err != nil {
			return nil, err
		}
		r.buf = buf[:0]
	}
	r.buf = buf
	return buf, nil
}

// --- encoding helpers -----------------------------------------------------

func appendU64(b []byte, v uint64) []byte {
	var tmp [8]byte
	binary.LittleEndian.PutUint64(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendU32(b []byte, v uint32) []byte {
	var tmp [4]byte
	binary.LittleEndian.PutUint32(tmp[:], v)
	return append(b, tmp[:]...)
}

func appendF64(b []byte, v float64) []byte { return appendU64(b, math.Float64bits(v)) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

type decoder struct {
	b   []byte
	err error
}

func (d *decoder) u64() uint64 {
	if d.err != nil || len(d.b) < 8 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || len(d.b) < 4 {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b)
	d.b = d.b[4:]
	return v
}

func (d *decoder) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *decoder) u8() uint8 {
	if d.err != nil || len(d.b) < 1 {
		d.fail()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *decoder) bool() bool { return d.u8() != 0 }

func (d *decoder) fail() {
	if d.err == nil {
		d.err = errors.New("wire: truncated payload")
	}
}

func (d *decoder) finish() error {
	if d.err != nil {
		return d.err
	}
	if len(d.b) != 0 {
		return fmt.Errorf("wire: %d trailing bytes in payload", len(d.b))
	}
	return nil
}

func appendMessage(b []byte, m Message) []byte {
	switch m := m.(type) {
	case ObjectReport:
		b = appendObjectUpdate(b, m.Update)
	case QueryReport:
		b = appendQueryUpdate(b, m.Update)
	case Commit:
		b = appendU64(b, uint64(m.Query))
		b = appendU64(b, m.Checksum)
	case CommitAck:
		b = appendU64(b, uint64(m.Query))
		b = appendU64(b, m.Checksum)
	case StatsRequest:
		// empty payload
	case Heartbeat:
		b = appendF64(b, m.Time)
	case StatsResponse:
		for _, v := range []uint64{
			m.Stats.Steps, m.Stats.ObjectReports, m.Stats.QueryReports,
			m.Stats.PositiveUpdates, m.Stats.NegativeUpdates,
			m.Stats.KNNRecomputes, m.Stats.CandidateChecks, m.Stats.RegionEvalCells,
		} {
			b = appendU64(b, v)
		}
		b = appendU32(b, m.Objects)
		b = appendU32(b, m.Queries)
		b = appendF64(b, m.Uptime)
	case Wakeup:
		b = appendQueryUpdate(b, m.Update)
		b = appendU64(b, m.Checksum)
	case UpdateBatch:
		b = appendUpdateBatch(b, m)
	case RecoveryDiff:
		b = appendUpdateBatch(b, UpdateBatch(m))
	case FullAnswer:
		b = appendU64(b, uint64(m.Query))
		b = appendF64(b, m.Time)
		b = appendU32(b, uint32(len(m.Objects)))
		for _, id := range m.Objects {
			b = appendU64(b, uint64(id))
		}
	case ClusterHello:
		start := len(b)
		b = appendU32(b, m.Worker)
		b = appendU64(b, m.Incarnation)
		b = appendClusterSum(b, start)
	case ClusterAssign:
		start := len(b)
		b = appendU32(b, m.Tile)
		b = appendU64(b, m.Epoch)
		for _, v := range []float64{m.Bounds.MinX, m.Bounds.MinY, m.Bounds.MaxX, m.Bounds.MaxY} {
			b = appendF64(b, v)
		}
		b = appendU32(b, m.GridN)
		b = appendF64(b, m.PredictiveHorizon)
		for _, v := range []float64{m.Region.MinX, m.Region.MinY, m.Region.MaxX, m.Region.MaxY} {
			b = appendF64(b, v)
		}
		b = appendF64(b, m.MaxSpeed)
		b = appendClusterSum(b, start)
	case ClusterStep:
		start := len(b)
		b = appendU32(b, m.Tile)
		b = appendU64(b, m.Epoch)
		b = appendF64(b, m.Time)
		b = appendReports(b, m.Objects, m.Queries)
		b = appendClusterSum(b, start)
	case ClusterStepResult:
		start := len(b)
		b = appendU32(b, m.Tile)
		b = appendU64(b, m.Epoch)
		b = appendF64(b, m.Time)
		b = appendU32(b, uint32(len(m.Updates)))
		for _, u := range m.Updates {
			b = appendU64(b, uint64(u.Query))
			b = appendU64(b, uint64(u.Object))
			b = appendBool(b, u.Positive)
		}
		b = appendU64(b, m.KNNRecomputes)
		b = appendU64(b, m.CandidateChecks)
		b = appendU64(b, m.RegionEvalCells)
		b = appendClusterSum(b, start)
	case ClusterResync:
		start := len(b)
		b = appendU32(b, m.Tile)
		b = appendU64(b, m.Epoch)
		b = appendBool(b, m.HasStep)
		b = appendF64(b, m.LastStep)
		b = appendReports(b, m.Objects, m.Queries)
		b = appendClusterSum(b, start)
	case ClusterResyncAck:
		start := len(b)
		b = appendU32(b, m.Tile)
		b = appendU64(b, m.Epoch)
		b = appendU64(b, m.Checksum)
		b = appendClusterSum(b, start)
	case ClusterRetire:
		start := len(b)
		b = appendU32(b, m.Tile)
		b = appendU64(b, m.Epoch)
		b = appendClusterSum(b, start)
	default:
		panic(fmt.Sprintf("wire: cannot encode %T", m))
	}
	return b
}

// appendReports encodes an object-report list followed by a
// query-report list (the shared tail of ClusterStep and ClusterResync).
func appendReports(b []byte, objs []core.ObjectUpdate, qrys []core.QueryUpdate) []byte {
	b = appendU32(b, uint32(len(objs)))
	for _, u := range objs {
		b = appendObjectUpdate(b, u)
	}
	b = appendU32(b, uint32(len(qrys)))
	for _, u := range qrys {
		b = appendQueryUpdate(b, u)
	}
	return b
}

// FNV-1a 64-bit, the cluster frames' payload integrity check. Inlined
// rather than hash/fnv so encoding stays allocation-free.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a(b []byte) uint64 {
	h := uint64(fnvOffset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// appendClusterSum seals a cluster payload with the FNV-1a checksum of
// everything appended since start.
func appendClusterSum(b []byte, start int) []byte {
	return appendU64(b, fnv1a(b[start:]))
}

// verifyClusterSum checks and strips the trailing payload checksum of a
// cluster frame before field decoding begins.
func (d *decoder) verifyClusterSum() {
	if d.err != nil {
		return
	}
	if len(d.b) < 8 {
		d.fail()
		return
	}
	body, sum := d.b[:len(d.b)-8], binary.LittleEndian.Uint64(d.b[len(d.b)-8:])
	if fnv1a(body) != sum {
		d.err = ErrClusterChecksum
		return
	}
	d.b = body
}

func appendObjectUpdate(b []byte, u core.ObjectUpdate) []byte {
	b = appendU64(b, uint64(u.ID))
	b = append(b, byte(u.Kind))
	b = appendF64(b, u.Loc.X)
	b = appendF64(b, u.Loc.Y)
	b = appendF64(b, u.Vel.DX)
	b = appendF64(b, u.Vel.DY)
	b = appendF64(b, u.T)
	b = appendBool(b, u.Remove)
	b = appendU32(b, uint32(len(u.Waypoints)))
	for _, w := range u.Waypoints {
		b = appendF64(b, w.P.X)
		b = appendF64(b, w.P.Y)
		b = appendF64(b, w.T)
	}
	return b
}

// objectUpdateMin is the wire size of a waypoint-free object update;
// list decoders use it to reject hostile counts before allocating.
const objectUpdateMin = 8 + 1 + 4*8 + 8 + 1 + 4

func decodeObjectUpdate(d *decoder) core.ObjectUpdate {
	var u core.ObjectUpdate
	u.ID = core.ObjectID(d.u64())
	u.Kind = core.ObjectKind(d.u8())
	u.Loc = geo.Pt(d.f64(), d.f64())
	u.Vel = geo.Vec(d.f64(), d.f64())
	u.T = d.f64()
	u.Remove = d.bool()
	n := int(d.u32())
	if d.err == nil && n > len(d.b)/24 {
		d.err = errors.New("wire: waypoint count exceeds payload")
		return u
	}
	if d.err == nil && n > 0 {
		u.Waypoints = make([]geo.TimedPoint, 0, n)
		for i := 0; i < n; i++ {
			u.Waypoints = append(u.Waypoints, geo.TimedPoint{
				P: geo.Pt(d.f64(), d.f64()), T: d.f64(),
			})
		}
	}
	return u
}

func appendQueryUpdate(b []byte, u core.QueryUpdate) []byte {
	b = appendU64(b, uint64(u.ID))
	b = append(b, byte(u.Kind))
	for _, v := range []float64{u.Region.MinX, u.Region.MinY, u.Region.MaxX, u.Region.MaxY,
		u.Focal.X, u.Focal.Y} {
		b = appendF64(b, v)
	}
	b = appendU32(b, uint32(u.K))
	b = appendF64(b, u.T1)
	b = appendF64(b, u.T2)
	b = appendF64(b, u.T)
	b = appendBool(b, u.Remove)
	return b
}

func decodeQueryUpdate(d *decoder) core.QueryUpdate {
	var u core.QueryUpdate
	u.ID = core.QueryID(d.u64())
	u.Kind = core.QueryKind(d.u8())
	u.Region = geo.Rect{MinX: d.f64(), MinY: d.f64(), MaxX: d.f64(), MaxY: d.f64()}
	u.Focal = geo.Pt(d.f64(), d.f64())
	u.K = int(d.u32())
	u.T1 = d.f64()
	u.T2 = d.f64()
	u.T = d.f64()
	u.Remove = d.bool()
	return u
}

func appendUpdateBatch(b []byte, m UpdateBatch) []byte {
	b = appendF64(b, m.Time)
	b = appendU32(b, uint32(len(m.Updates)))
	for _, u := range m.Updates {
		b = appendU64(b, uint64(u.Query))
		b = appendU64(b, uint64(u.Object))
		b = appendBool(b, u.Positive)
	}
	return b
}

func decodeMessage(t MsgType, payload []byte) (Message, error) {
	d := &decoder{b: payload}
	switch t {
	case MsgObjectReport:
		m := ObjectReport{Update: decodeObjectUpdate(d)}
		return m, d.finish()
	case MsgQueryReport:
		m := QueryReport{Update: decodeQueryUpdate(d)}
		return m, d.finish()
	case MsgCommit:
		m := Commit{Query: core.QueryID(d.u64()), Checksum: d.u64()}
		return m, d.finish()
	case MsgCommitAck:
		m := CommitAck{Query: core.QueryID(d.u64()), Checksum: d.u64()}
		return m, d.finish()
	case MsgStatsRequest:
		return StatsRequest{}, d.finish()
	case MsgHeartbeat:
		m := Heartbeat{Time: d.f64()}
		return m, d.finish()
	case MsgStatsResponse:
		var m StatsResponse
		m.Stats.Steps = d.u64()
		m.Stats.ObjectReports = d.u64()
		m.Stats.QueryReports = d.u64()
		m.Stats.PositiveUpdates = d.u64()
		m.Stats.NegativeUpdates = d.u64()
		m.Stats.KNNRecomputes = d.u64()
		m.Stats.CandidateChecks = d.u64()
		m.Stats.RegionEvalCells = d.u64()
		m.Objects = d.u32()
		m.Queries = d.u32()
		m.Uptime = d.f64()
		return m, d.finish()
	case MsgWakeup:
		m := Wakeup{Update: decodeQueryUpdate(d), Checksum: d.u64()}
		return m, d.finish()
	case MsgUpdateBatch:
		m, err := decodeUpdateBatch(d)
		return m, err
	case MsgRecoveryDiff:
		m, err := decodeUpdateBatch(d)
		return RecoveryDiff(m), err
	case MsgFullAnswer:
		var m FullAnswer
		m.Query = core.QueryID(d.u64())
		m.Time = d.f64()
		n := int(d.u32())
		if d.err == nil && n > len(d.b)/8 {
			return nil, errors.New("wire: answer count exceeds payload")
		}
		m.Objects = make([]core.ObjectID, 0, n)
		for i := 0; i < n; i++ {
			m.Objects = append(m.Objects, core.ObjectID(d.u64()))
		}
		return m, d.finish()
	case MsgClusterHello:
		d.verifyClusterSum()
		m := ClusterHello{Worker: d.u32(), Incarnation: d.u64()}
		return m, d.finish()
	case MsgClusterAssign:
		d.verifyClusterSum()
		var m ClusterAssign
		m.Tile = d.u32()
		m.Epoch = d.u64()
		m.Bounds = geo.Rect{MinX: d.f64(), MinY: d.f64(), MaxX: d.f64(), MaxY: d.f64()}
		m.GridN = d.u32()
		m.PredictiveHorizon = d.f64()
		m.Region = geo.Rect{MinX: d.f64(), MinY: d.f64(), MaxX: d.f64(), MaxY: d.f64()}
		m.MaxSpeed = d.f64()
		return m, d.finish()
	case MsgClusterStep:
		d.verifyClusterSum()
		var m ClusterStep
		m.Tile = d.u32()
		m.Epoch = d.u64()
		m.Time = d.f64()
		m.Objects, m.Queries = decodeReports(d)
		return m, d.finish()
	case MsgClusterStepResult:
		d.verifyClusterSum()
		var m ClusterStepResult
		m.Tile = d.u32()
		m.Epoch = d.u64()
		m.Time = d.f64()
		n := int(d.u32())
		if d.err == nil && n > len(d.b)/17 {
			d.err = errors.New("wire: update count exceeds payload")
			return m, d.finish()
		}
		if d.err == nil {
			m.Updates = make([]core.Update, 0, n)
			for i := 0; i < n; i++ {
				m.Updates = append(m.Updates, core.Update{
					Query:    core.QueryID(d.u64()),
					Object:   core.ObjectID(d.u64()),
					Positive: d.bool(),
				})
			}
		}
		m.KNNRecomputes = d.u64()
		m.CandidateChecks = d.u64()
		m.RegionEvalCells = d.u64()
		return m, d.finish()
	case MsgClusterResync:
		d.verifyClusterSum()
		var m ClusterResync
		m.Tile = d.u32()
		m.Epoch = d.u64()
		m.HasStep = d.bool()
		m.LastStep = d.f64()
		m.Objects, m.Queries = decodeReports(d)
		return m, d.finish()
	case MsgClusterRetire:
		d.verifyClusterSum()
		m := ClusterRetire{Tile: d.u32(), Epoch: d.u64()}
		return m, d.finish()
	case MsgClusterResyncAck:
		d.verifyClusterSum()
		m := ClusterResyncAck{Tile: d.u32(), Epoch: d.u64(), Checksum: d.u64()}
		return m, d.finish()
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
}

// decodeReports decodes the object/query report lists shared by
// ClusterStep and ClusterResync, rejecting hostile counts before any
// allocation.
func decodeReports(d *decoder) ([]core.ObjectUpdate, []core.QueryUpdate) {
	n := int(d.u32())
	if d.err == nil && n > len(d.b)/objectUpdateMin {
		d.err = errors.New("wire: object report count exceeds payload")
		return nil, nil
	}
	var objs []core.ObjectUpdate
	if d.err == nil && n > 0 {
		objs = make([]core.ObjectUpdate, 0, n)
		for i := 0; i < n; i++ {
			objs = append(objs, decodeObjectUpdate(d))
		}
	}
	const queryUpdateMin = 8 + 1 + 6*8 + 4 + 3*8 + 1
	n = int(d.u32())
	if d.err == nil && n > len(d.b)/queryUpdateMin {
		d.err = errors.New("wire: query report count exceeds payload")
		return objs, nil
	}
	var qrys []core.QueryUpdate
	if d.err == nil && n > 0 {
		qrys = make([]core.QueryUpdate, 0, n)
		for i := 0; i < n; i++ {
			qrys = append(qrys, decodeQueryUpdate(d))
		}
	}
	return objs, qrys
}

func decodeUpdateBatch(d *decoder) (UpdateBatch, error) {
	var m UpdateBatch
	m.Time = d.f64()
	n := int(d.u32())
	if d.err == nil && n > len(d.b)/17 {
		return m, errors.New("wire: update count exceeds payload")
	}
	m.Updates = make([]core.Update, 0, n)
	for i := 0; i < n; i++ {
		m.Updates = append(m.Updates, core.Update{
			Query:    core.QueryID(d.u64()),
			Object:   core.ObjectID(d.u64()),
			Positive: d.bool(),
		})
	}
	return m, d.finish()
}

// EncodedSize returns the wire size in bytes of a message, including the
// frame header; the benchmarks use it to measure answer bandwidth exactly
// as the network would see it. It encodes m: a Reader or Writer that has
// just handled m reports the same number through FrameSize for free.
func EncodedSize(m Message) int {
	return 5 + len(appendMessage(nil, m))
}
