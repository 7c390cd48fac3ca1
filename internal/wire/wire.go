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
	// incremental updates plus the engine's work-ledger delta for it.
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
// evaluation's incremental updates and the tile engine's work-ledger
// delta for that evaluation, which the coordinator accumulates into the
// tile's ledger without extra round trips.
type ClusterStepResult struct {
	Tile    uint32
	Epoch   uint64
	Time    float64
	Updates []core.Update
	Work    core.Stats
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
	var u core.ObjectUpdate
	m, err := r.ReadObject(&u)
	if m == nil && err == nil {
		return ObjectReport{Update: u}, nil
	}
	return m, err
}

// ReadObject decodes the next message as Read does, except that an
// ObjectReport is decoded into *u, with no interface box, and returned
// as a nil Message. Any other message leaves *u as it was; an error
// leaves it undefined. It returns io.EOF at a clean end of stream.
func (r *Reader) ReadObject(u *core.ObjectUpdate) (Message, error) {
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
	return decodeMessage(MsgType(header[4]), payload, u)
}

// FrameBuffered reports whether a whole frame sits in the read buffer,
// so that the next Read or ReadObject returns without reading the
// stream.
func (r *Reader) FrameBuffered() bool {
	n := r.r.Buffered()
	if n < len(r.header) {
		return false
	}
	h, _ := r.r.Peek(len(r.header))
	return uint64(n) >= uint64(len(r.header))+uint64(binary.LittleEndian.Uint32(h))
}

// FrameSize returns the size in bytes, header included, of the frame the
// last Read or ReadObject consumed whole (whether or not it decoded):
// EncodedSize of that message, without encoding it again.
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

// --- codec ----------------------------------------------------------------

// codec encodes or decodes one payload. Each frame type names its fields
// once, in wire order, in its code method; the field helpers below either
// append a field to b (enc) or consume it from b into the field, so the
// encoder and the decoder cannot disagree on a layout. Decoding keeps the
// first error in err, after which every helper is a no-op. Encoding never
// writes to the frame it codes.
type codec struct {
	enc bool
	b   []byte // encoding: the payload so far; decoding: the payload
	// off counts the bytes of b decoded. Advancing an int rather than
	// re-slicing b stores one word per field, with no GC write barrier.
	off int
	err error
}

var errTruncated = errors.New("wire: truncated payload")

// next consumes the next n payload bytes, or returns nil and records a
// truncation.
func (c *codec) next(n int) []byte {
	if c.err != nil || len(c.b)-c.off < n {
		if c.err == nil {
			c.err = errTruncated
		}
		return nil
	}
	c.off += n
	return c.b[c.off-n : c.off]
}

func u64[T ~uint64](c *codec, v *T) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, uint64(*v))
	} else if p := c.next(8); p != nil {
		*v = T(binary.LittleEndian.Uint64(p))
	}
}

func u32[T ~uint32](c *codec, v *T) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	} else if p := c.next(4); p != nil {
		*v = T(binary.LittleEndian.Uint32(p))
	}
}

func u8[T ~uint8](c *codec, v *T) {
	if c.enc {
		c.b = append(c.b, uint8(*v))
	} else if p := c.next(1); p != nil {
		*v = T(p[0])
	}
}

func (c *codec) f64(v *float64) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint64(c.b, math.Float64bits(*v))
	} else if p := c.next(8); p != nil {
		*v = math.Float64frombits(binary.LittleEndian.Uint64(p))
	}
}

// bool codes one byte: 1 for true; any nonzero byte decodes as true.
func (c *codec) bool(v *bool) {
	if c.enc {
		var b byte
		if *v {
			b = 1
		}
		c.b = append(c.b, b)
	} else if p := c.next(1); p != nil {
		*v = p[0] != 0
	}
}

// int codes an int (a kNN query's K) as a uint32.
func (c *codec) int(v *int) {
	if c.enc {
		c.b = binary.LittleEndian.AppendUint32(c.b, uint32(*v))
	} else if p := c.next(4); p != nil {
		*v = int(binary.LittleEndian.Uint32(p))
	}
}

func (c *codec) point(p *geo.Point) {
	c.f64(&p.X)
	c.f64(&p.Y)
}

func (c *codec) rect(r *geo.Rect) {
	c.f64(&r.MinX)
	c.f64(&r.MinY)
	c.f64(&r.MaxX)
	c.f64(&r.MaxY)
}

// Minimum wire sizes of list elements, by which count bounds a list.
const (
	updateSize      = 8 + 8 + 1
	waypointSize    = 3 * 8
	objectUpdateMin = 8 + 1 + 5*8 + 1 + 4 // without waypoints
	queryUpdateSize = 8 + 1 + 6*8 + 4 + 3*8 + 1
)

// count codes the length of a list as a uint32; the caller then codes
// each element of *s. Decoding rejects a count the rest of the payload
// cannot hold at minSize bytes per element before it allocates, then
// sizes *s to the count (leaving an empty list nil).
func count[T any](c *codec, s *[]T, minSize int, what string) {
	n := uint32(len(*s))
	u32(c, &n)
	switch {
	case c.enc || c.err != nil || n == 0:
	case int(n) > (len(c.b)-c.off)/minSize:
		c.err = fmt.Errorf("wire: %s count exceeds payload", what)
	default:
		*s = make([]T, n)
	}
}

func (c *codec) updates(us *[]core.Update) {
	count(c, us, updateSize, "update")
	for i := range *us {
		u := &(*us)[i]
		u64(c, &u.Query)
		u64(c, &u.Object)
		c.bool(&u.Positive)
	}
}

func (c *codec) objectUpdate(u *core.ObjectUpdate) {
	u64(c, &u.ID)
	u8(c, &u.Kind)
	c.point(&u.Loc)
	c.f64(&u.Vel.DX)
	c.f64(&u.Vel.DY)
	c.f64(&u.T)
	c.bool(&u.Remove)
	count(c, &u.Waypoints, waypointSize, "waypoint")
	for i := range u.Waypoints {
		c.point(&u.Waypoints[i].P)
		c.f64(&u.Waypoints[i].T)
	}
}

func (c *codec) queryUpdate(u *core.QueryUpdate) {
	u64(c, &u.ID)
	u8(c, &u.Kind)
	c.rect(&u.Region)
	c.point(&u.Focal)
	c.int(&u.K)
	c.f64(&u.T1)
	c.f64(&u.T2)
	c.f64(&u.T)
	c.bool(&u.Remove)
}

// reports codes an object-report list followed by a query-report list
// (the shared tail of ClusterStep and ClusterResync).
func (c *codec) reports(objs *[]core.ObjectUpdate, qrys *[]core.QueryUpdate) {
	count(c, objs, objectUpdateMin, "object report")
	for i := range *objs {
		c.objectUpdate(&(*objs)[i])
	}
	count(c, qrys, queryUpdateSize, "query report")
	for i := range *qrys {
		c.queryUpdate(&(*qrys)[i])
	}
}

// --- frame layouts ----------------------------------------------------------

func (m *ObjectReport) code(c *codec) { c.objectUpdate(&m.Update) }
func (m *QueryReport) code(c *codec)  { c.queryUpdate(&m.Update) }
func (*StatsRequest) code(*codec)     {}
func (m *Heartbeat) code(c *codec)    { c.f64(&m.Time) }

func (m *Commit) code(c *codec) {
	u64(c, &m.Query)
	u64(c, &m.Checksum)
}

func (m *CommitAck) code(c *codec) { (*Commit)(m).code(c) }

func (m *Wakeup) code(c *codec) {
	c.queryUpdate(&m.Update)
	u64(c, &m.Checksum)
}

func (m *UpdateBatch) code(c *codec) {
	c.f64(&m.Time)
	c.updates(&m.Updates)
}

func (m *RecoveryDiff) code(c *codec) { (*UpdateBatch)(m).code(c) }

func (m *FullAnswer) code(c *codec) {
	u64(c, &m.Query)
	c.f64(&m.Time)
	count(c, &m.Objects, 8, "answer")
	for i := range m.Objects {
		u64(c, &m.Objects[i])
	}
}

// StatsResponse is client-facing: it keeps a fixed set of ledger
// counters, so deployed clients decode it whatever the ledger gains.
func (m *StatsResponse) code(c *codec) {
	s := &m.Stats
	for _, v := range [...]*uint64{&s.Steps, &s.ObjectReports, &s.QueryReports,
		&s.PositiveUpdates, &s.NegativeUpdates,
		&s.KNNRecomputes, &s.CandidateChecks, &s.RegionEvalCells} {
		u64(c, v)
	}
	u32(c, &m.Objects)
	u32(c, &m.Queries)
	c.f64(&m.Uptime)
}

func (m *ClusterHello) code(c *codec) {
	u32(c, &m.Worker)
	u64(c, &m.Incarnation)
}

func (m *ClusterAssign) code(c *codec) {
	u32(c, &m.Tile)
	u64(c, &m.Epoch)
	c.rect(&m.Bounds)
	u32(c, &m.GridN)
	c.f64(&m.PredictiveHorizon)
	c.rect(&m.Region)
	c.f64(&m.MaxSpeed)
}

func (m *ClusterStep) code(c *codec) {
	u32(c, &m.Tile)
	u64(c, &m.Epoch)
	c.f64(&m.Time)
	c.reports(&m.Objects, &m.Queries)
}

func (m *ClusterStepResult) code(c *codec) {
	u32(c, &m.Tile)
	u64(c, &m.Epoch)
	c.f64(&m.Time)
	c.updates(&m.Updates)
	for _, v := range m.Work.Counters() {
		u64(c, v)
	}
}

func (m *ClusterResync) code(c *codec) {
	u32(c, &m.Tile)
	u64(c, &m.Epoch)
	c.bool(&m.HasStep)
	c.f64(&m.LastStep)
	c.reports(&m.Objects, &m.Queries)
}

func (m *ClusterResyncAck) code(c *codec) {
	u32(c, &m.Tile)
	u64(c, &m.Epoch)
	u64(c, &m.Checksum)
}

func (m *ClusterRetire) code(c *codec) {
	u32(c, &m.Tile)
	u64(c, &m.Epoch)
}

// --- cluster payload checksum ---------------------------------------------

// sealed reports whether frames of type t end in an FNV-1a checksum of
// the rest of their payload: the cluster control frames do.
func (t MsgType) sealed() bool { return t >= MsgClusterHello && t <= MsgClusterRetire }

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

// seal appends the checksum of everything encoded from start on.
func (c *codec) seal(start int) {
	sum := fnv1a(c.b[start:])
	u64(c, &sum)
}

// unseal verifies and strips the trailing checksum before the fields are
// decoded.
func (c *codec) unseal() {
	if len(c.b) < 8 {
		c.err = errTruncated
		return
	}
	body := c.b[:len(c.b)-8]
	if fnv1a(body) != binary.LittleEndian.Uint64(c.b[len(body):]) {
		c.err = ErrClusterChecksum
		return
	}
	c.b = body
}

// --- messages ---------------------------------------------------------------

func appendMessage(b []byte, m Message) []byte {
	c := codec{enc: true, b: b}
	switch m := m.(type) {
	case ObjectReport:
		m.code(&c)
	case QueryReport:
		m.code(&c)
	case Commit:
		m.code(&c)
	case Wakeup:
		m.code(&c)
	case UpdateBatch:
		m.code(&c)
	case RecoveryDiff:
		m.code(&c)
	case FullAnswer:
		m.code(&c)
	case CommitAck:
		m.code(&c)
	case StatsRequest:
		m.code(&c)
	case StatsResponse:
		m.code(&c)
	case Heartbeat:
		m.code(&c)
	case ClusterHello:
		m.code(&c)
	case ClusterAssign:
		m.code(&c)
	case ClusterStep:
		m.code(&c)
	case ClusterStepResult:
		m.code(&c)
	case ClusterResync:
		m.code(&c)
	case ClusterResyncAck:
		m.code(&c)
	case ClusterRetire:
		m.code(&c)
	default:
		panic(fmt.Sprintf("wire: cannot encode %T", m))
	}
	if m.msgType().sealed() {
		c.seal(len(b))
	}
	return c.b
}

// decoded decodes a zero M through its code method. It returns the
// value, not a Message, and code is a static method expression, so the
// whole call inlines and the frame escapes only when decodeMessage boxes
// it: one allocation per fixed-size frame.
func decoded[M any](c *codec, code func(*M, *codec)) M {
	var v M
	code(&v, c)
	return v
}

// decodeMessage decodes one payload of type t. An ObjectReport is
// decoded into *u and returns a nil Message, as does every error.
func decodeMessage(t MsgType, payload []byte, u *core.ObjectUpdate) (Message, error) {
	c := codec{b: payload}
	if t.sealed() {
		c.unseal()
	}
	var m Message
	switch t {
	case MsgObjectReport:
		*u = core.ObjectUpdate{} // an empty waypoint list decodes as nil
		c.objectUpdate(u)
	case MsgQueryReport:
		m = decoded(&c, (*QueryReport).code)
	case MsgCommit:
		m = decoded(&c, (*Commit).code)
	case MsgWakeup:
		m = decoded(&c, (*Wakeup).code)
	case MsgUpdateBatch:
		m = decoded(&c, (*UpdateBatch).code)
	case MsgRecoveryDiff:
		m = decoded(&c, (*RecoveryDiff).code)
	case MsgFullAnswer:
		m = decoded(&c, (*FullAnswer).code)
	case MsgCommitAck:
		m = decoded(&c, (*CommitAck).code)
	case MsgStatsRequest:
		m = decoded(&c, (*StatsRequest).code)
	case MsgStatsResponse:
		m = decoded(&c, (*StatsResponse).code)
	case MsgHeartbeat:
		m = decoded(&c, (*Heartbeat).code)
	case MsgClusterHello:
		m = decoded(&c, (*ClusterHello).code)
	case MsgClusterAssign:
		m = decoded(&c, (*ClusterAssign).code)
	case MsgClusterStep:
		m = decoded(&c, (*ClusterStep).code)
	case MsgClusterStepResult:
		m = decoded(&c, (*ClusterStepResult).code)
	case MsgClusterResync:
		m = decoded(&c, (*ClusterResync).code)
	case MsgClusterResyncAck:
		m = decoded(&c, (*ClusterResyncAck).code)
	case MsgClusterRetire:
		m = decoded(&c, (*ClusterRetire).code)
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, t)
	}
	if c.err == nil && c.off != len(c.b) {
		c.err = fmt.Errorf("wire: %d trailing bytes in payload", len(c.b)-c.off)
	}
	if c.err != nil {
		return nil, c.err
	}
	return m, nil
}

// EncodedSize returns the wire size in bytes of a message, including the
// frame header; the benchmarks use it to measure answer bandwidth exactly
// as the network would see it. It encodes m: a Reader or Writer that has
// just handled m reports the same number through FrameSize for free.
func EncodedSize(m Message) int {
	return 5 + len(appendMessage(nil, m))
}
