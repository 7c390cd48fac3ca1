package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(m); err != nil {
		t.Fatalf("write %T: %v", m, err)
	}
	got, err := NewReader(&buf).Read()
	if err != nil {
		t.Fatalf("read %T: %v", m, err)
	}
	return got
}

func TestRoundTripAllMessages(t *testing.T) {
	msgs := []Message{
		ObjectReport{Update: core.ObjectUpdate{
			ID: 42, Kind: core.Predictive, Loc: geo.Pt(1.5, -2.25),
			Vel: geo.Vec(0.125, -0.5), T: 99.5,
		}},
		ObjectReport{Update: core.ObjectUpdate{ID: 7, Remove: true}},
		ObjectReport{Update: core.ObjectUpdate{
			ID: 8, Kind: core.Predictive, Loc: geo.Pt(0, 0), T: 1,
			Waypoints: []geo.TimedPoint{{P: geo.Pt(1, 1), T: 2}, {P: geo.Pt(2, 0), T: 4}},
		}},
		QueryReport{Update: core.QueryUpdate{
			ID: 9, Kind: core.Range, Region: geo.R(0, 1, 2, 3), T: 5,
		}},
		QueryReport{Update: core.QueryUpdate{
			ID: 10, Kind: core.KNN, Focal: geo.Pt(4, 5), K: 3, T: 6,
		}},
		QueryReport{Update: core.QueryUpdate{
			ID: 11, Kind: core.PredictiveRange, Region: geo.R(1, 1, 2, 2),
			T1: 10, T2: 20, T: 7,
		}},
		QueryReport{Update: core.QueryUpdate{ID: 12, Remove: true}},
		Commit{Query: 5, Checksum: 0xDEADBEEF},
		CommitAck{Query: 5, Checksum: 0xDEADBEEF},
		Wakeup{Update: core.QueryUpdate{ID: 5, Kind: core.Range, Region: geo.R(0, 0, 1, 1)}, Checksum: 77},
		UpdateBatch{Time: 12.5, Updates: []core.Update{
			{Query: 1, Object: 2, Positive: true},
			{Query: 1, Object: 3, Positive: false},
		}},
		UpdateBatch{Time: 0},
		RecoveryDiff{Time: 3, Updates: []core.Update{{Query: 9, Object: 1, Positive: true}}},
		FullAnswer{Query: 8, Time: 44, Objects: []core.ObjectID{1, 5, 9}},
		FullAnswer{Query: 8, Time: 44},
		StatsRequest{},
		Heartbeat{Time: 33.25},
		StatsResponse{
			Stats:   core.Stats{Steps: 1, ObjectReports: 2, QueryReports: 3, PositiveUpdates: 4, NegativeUpdates: 5, KNNRecomputes: 6, CandidateChecks: 7, RegionEvalCells: 8},
			Objects: 9, Queries: 10, Uptime: 11.5,
		},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		want := m
		// Empty slices decode as non-nil empty; normalize.
		if !equalMessages(got, want) {
			t.Errorf("round trip %T:\n got %+v\nwant %+v", m, got, want)
		}
	}
}

func equalMessages(a, b Message) bool {
	norm := func(m Message) Message {
		switch m := m.(type) {
		case UpdateBatch:
			if len(m.Updates) == 0 {
				m.Updates = nil
			}
			return m
		case RecoveryDiff:
			if len(m.Updates) == 0 {
				m.Updates = nil
			}
			return m
		case FullAnswer:
			if len(m.Objects) == 0 {
				m.Objects = nil
			}
			return m
		default:
			return m
		}
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

func TestStreamOfMessages(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 100; i++ {
		if err := w.Write(Commit{Query: core.QueryID(i), Checksum: uint64(i * i)}); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(&buf)
	for i := 0; i < 100; i++ {
		m, err := r.Read()
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		c := m.(Commit)
		if c.Query != core.QueryID(i) || c.Checksum != uint64(i*i) {
			t.Fatalf("message %d = %+v", i, c)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("end of stream err = %v", err)
	}
}

func TestTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf).Write(Commit{Query: 1, Checksum: 2})
	data := buf.Bytes()
	// Claim the right length but provide fewer payload bytes.
	short := data[:len(data)-3]
	if _, err := NewReader(bytes.NewReader(short)).Read(); err == nil {
		t.Error("truncated stream should fail")
	}
	// Corrupt the declared length to be under-sized for the type.
	bad := append([]byte(nil), data...)
	binary.LittleEndian.PutUint32(bad[0:], 4)
	if _, err := NewReader(bytes.NewReader(bad[:4+1+4])).Read(); err == nil {
		t.Error("undersized payload should fail")
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	var buf bytes.Buffer
	NewWriter(&buf).Write(Commit{Query: 1, Checksum: 2})
	data := buf.Bytes()
	// Grow the payload by one byte and fix the length header.
	data = append(data, 0xAA)
	binary.LittleEndian.PutUint32(data[0:], uint32(len(data)-5))
	if _, err := NewReader(bytes.NewReader(data)).Read(); err == nil {
		t.Error("trailing bytes should fail")
	}
}

func TestUnknownTypeRejected(t *testing.T) {
	frame := []byte{0, 0, 0, 0, 0xEE}
	if _, err := NewReader(bytes.NewReader(frame)).Read(); !errors.Is(err, ErrUnknownType) {
		t.Errorf("err = %v", err)
	}
}

func TestFrameTooLargeRejected(t *testing.T) {
	var header [5]byte
	binary.LittleEndian.PutUint32(header[0:], MaxPayload+1)
	header[4] = byte(MsgCommit)
	if _, err := NewReader(bytes.NewReader(header[:])).Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
}

func TestReaderLimitRejectsOversizedFrame(t *testing.T) {
	// A frame valid under the default limit must be refused by a reader
	// with a tighter one — before any payload is consumed.
	var buf bytes.Buffer
	NewWriter(&buf).Write(FullAnswer{Query: 1, Objects: make([]core.ObjectID, 100)})
	r := NewReaderLimit(&buf, 64)
	if _, err := r.Read(); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("err = %v", err)
	}
	// Limit 0 means the default.
	if r := NewReaderLimit(bytes.NewReader(nil), 0); r.max != MaxPayload {
		t.Errorf("limit 0 → %d, want MaxPayload", r.max)
	}
}

func TestHostileLengthPrefixDoesNotAllocate(t *testing.T) {
	// A header claiming a near-maximal payload followed by nothing must
	// fail without committing payload-sized memory. (The incremental
	// reader allocates at most maxPrealloc before bytes arrive.)
	var frame [5]byte
	binary.LittleEndian.PutUint32(frame[0:], MaxPayload-1)
	frame[4] = byte(MsgFullAnswer)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := NewReader(bytes.NewReader(frame[:])).Read(); err == nil {
			t.Fatal("truncated hostile frame should fail")
		}
	})
	// bufio.Reader + reader + one ≤64KiB chunk, with slack; far below the
	// hundreds that a per-byte or per-chunk-leak implementation would hit,
	// and the test would OOM long before MaxPayload-sized allocations.
	if allocs > 20 {
		t.Errorf("hostile prefix cost %.0f allocs", allocs)
	}
}

func TestLargeFrameChunkedRoundTrip(t *testing.T) {
	// A genuine large frame (over maxPrealloc) must still round-trip
	// through the incremental read path.
	objs := make([]core.ObjectID, 100_000) // 800KB payload
	for i := range objs {
		objs[i] = core.ObjectID(i * 3)
	}
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(FullAnswer{Query: 9, Time: 1, Objects: objs}); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	m, err := r.Read()
	if err != nil {
		t.Fatal(err)
	}
	got := m.(FullAnswer)
	if len(got.Objects) != len(objs) || got.Objects[99_999] != objs[99_999] {
		t.Fatalf("large frame mangled: %d objects", len(got.Objects))
	}
}

func TestBitFlippedFramesNeverPanic(t *testing.T) {
	// Flip every bit of a representative frame one at a time: each
	// variant must either decode or error, never panic, and header flips
	// must not cause huge allocations (guarded by the limit).
	var buf bytes.Buffer
	NewWriter(&buf).Write(Wakeup{
		Update:   core.QueryUpdate{ID: 5, Kind: core.Range, Region: geo.R(0, 0, 1, 1)},
		Checksum: 99,
	})
	frame := buf.Bytes()
	for bit := 0; bit < len(frame)*8; bit++ {
		mut := append([]byte(nil), frame...)
		mut[bit/8] ^= 1 << (bit % 8)
		NewReaderLimit(bytes.NewReader(mut), 1<<20).Read()
	}
}

func TestAbsurdCountsRejected(t *testing.T) {
	// An UpdateBatch claiming more updates than the payload can hold must
	// fail before allocating, and like every decode error return no
	// message.
	payload := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1.0))
	payload = binary.LittleEndian.AppendUint32(payload, 1<<30)
	var frame []byte
	var lenBuf [4]byte
	binary.LittleEndian.PutUint32(lenBuf[:], uint32(len(payload)))
	frame = append(frame, lenBuf[:]...)
	frame = append(frame, byte(MsgUpdateBatch))
	frame = append(frame, payload...)
	if m, err := NewReader(bytes.NewReader(frame)).Read(); err == nil || m != nil {
		t.Errorf("absurd update count: got %v, %v; want nil and an error", m, err)
	}
}

func TestEncodedSize(t *testing.T) {
	m := UpdateBatch{Time: 1, Updates: []core.Update{{Query: 1, Object: 2, Positive: true}}}
	// 5 header + 8 time + 4 count + 17 per update.
	if got := EncodedSize(m); got != 5+8+4+17 {
		t.Errorf("EncodedSize = %d", got)
	}
	var buf bytes.Buffer
	NewWriter(&buf).Write(m)
	if buf.Len() != EncodedSize(m) {
		t.Errorf("EncodedSize %d != actual %d", EncodedSize(m), buf.Len())
	}
}

// TestFrameSizeMatchesEncodedSize: the frame sizes the Writer and Reader
// report as they go are EncodedSize of each message, so the server can
// count bytes_in/bytes_out without encoding a frame twice.
func TestFrameSizeMatchesEncodedSize(t *testing.T) {
	msgs := []Message{
		ObjectReport{Update: core.ObjectUpdate{ID: 7, Kind: core.Moving, Loc: geo.Pt(1, 2), T: 3}},
		UpdateBatch{Time: 1, Updates: []core.Update{{Query: 1, Object: 2, Positive: true}}},
		Heartbeat{Time: 2},
		StatsRequest{},
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for _, m := range msgs {
		if err := w.WriteBuffered(m); err != nil {
			t.Fatal(err)
		}
		if got, want := w.FrameSize(), EncodedSize(m); got != want {
			t.Errorf("Writer.FrameSize(%T) = %d, want %d", m, got, want)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, want := range msgs {
		m, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if got := r.FrameSize(); got != EncodedSize(want) {
			t.Errorf("Reader.FrameSize(%T) = %d, want %d", m, got, EncodedSize(want))
		}
	}
}

// TestWriteBufferedByteIdentical proves the batched write path produces
// exactly the byte stream of the unbatched path: N frames encoded with
// WriteBuffered and flushed once must equal the same N frames written
// (and flushed) one by one. The server's session writer relies on this
// to coalesce its outbox drain without changing the protocol.
func TestWriteBufferedByteIdentical(t *testing.T) {
	msgs := []Message{
		UpdateBatch{Time: 1.5, Updates: []core.Update{
			{Query: 1, Object: 2, Positive: true},
			{Query: 3, Object: 4, Positive: false},
		}},
		Heartbeat{Time: 2.25},
		FullAnswer{Query: 7, Time: 3, Objects: []core.ObjectID{1, 2, 3}},
		CommitAck{Query: 7, Checksum: 0xFEED},
		RecoveryDiff{Time: 4, Updates: []core.Update{{Query: 9, Object: 1, Positive: true}}},
		UpdateBatch{Time: 5},
	}

	var unbatched bytes.Buffer
	uw := NewWriter(&unbatched)
	for _, m := range msgs {
		if err := uw.Write(m); err != nil {
			t.Fatalf("unbatched write %T: %v", m, err)
		}
	}

	var batched bytes.Buffer
	bw := NewWriter(&batched)
	for _, m := range msgs {
		if err := bw.WriteBuffered(m); err != nil {
			t.Fatalf("buffered write %T: %v", m, err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	if !bytes.Equal(unbatched.Bytes(), batched.Bytes()) {
		t.Fatalf("batched stream diverges from unbatched: %d vs %d bytes",
			batched.Len(), unbatched.Len())
	}

	// And the batched stream decodes back to the same messages (compared
	// through re-encoding: decode normalizes nil and empty slices).
	reencode := func(m Message) []byte {
		var b bytes.Buffer
		if err := NewWriter(&b).Write(m); err != nil {
			t.Fatalf("re-encode %T: %v", m, err)
		}
		return b.Bytes()
	}
	r := NewReader(bytes.NewReader(batched.Bytes()))
	for i, want := range msgs {
		got, err := r.Read()
		if err != nil {
			t.Fatalf("decode frame %d: %v", i, err)
		}
		if !bytes.Equal(reencode(got), reencode(want)) {
			t.Fatalf("frame %d: got %#v, want %#v", i, got, want)
		}
	}
	if _, err := r.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("expected clean EOF after %d frames, got %v", len(msgs), err)
	}
}

// TestShortClusterPayloadRejected: a cluster payload too short to hold
// its checksum is truncated, not a checksum mismatch, and yields no
// message.
func TestShortClusterPayloadRejected(t *testing.T) {
	frame := []byte{3, 0, 0, 0, byte(MsgClusterRetire), 1, 2, 3}
	m, err := NewReader(bytes.NewReader(frame)).Read()
	if m != nil || err == nil || errors.Is(err, ErrClusterChecksum) {
		t.Errorf("got %v, %v; want nil and a truncation error", m, err)
	}
}

type brokenStream struct{}

var errBroken = errors.New("broken stream")

func (brokenStream) Write([]byte) (int, error) { return 0, errBroken }

// TestWriteErrorsSurface: a failing stream surfaces from Write, whether
// the frame overflows the writer's buffer (payload write) or fits in it
// (flush).
func TestWriteErrorsSurface(t *testing.T) {
	for _, m := range []Message{
		FullAnswer{Query: 1, Objects: make([]core.ObjectID, 1000)},
		Heartbeat{Time: 1},
	} {
		if err := NewWriter(brokenStream{}).Write(m); !errors.Is(err, errBroken) {
			t.Errorf("Write(%T) on a broken stream = %v", m, err)
		}
	}
}
