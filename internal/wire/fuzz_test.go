package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// FuzzRoundTrip is the complement of FuzzDecode: instead of starting
// from hostile bytes, it drives the writer with arbitrary structured
// messages. Every message the writer can produce must decode and
// re-encode to the byte-identical frame — the protocol admits exactly
// one encoding per message, which is what makes the server's update
// streams reproducible and the out-of-sync checksum handshake sound.
func FuzzRoundTrip(f *testing.F) {
	for sel := byte(0); sel < fuzzMessageKinds; sel++ {
		f.Add(sel, uint64(1), uint64(2), 0.5, 1.5, -0.25, 42.0, false, uint(3))
	}
	f.Add(byte(1), uint64(9), uint64(8), -1.0, 2.0, 0.5, -3.0, true, uint(17))
	// Corners of every message: IDs and checksums at the top of their
	// ranges, negative and tiny coordinates, a far-future timestamp and
	// the longest lists buildFuzzMessage builds.
	for sel := byte(0); sel < fuzzMessageKinds; sel++ {
		f.Add(sel, ^uint64(0), uint64(1)<<32-1, -180.0, 90.0, 1e-9, 1e12, true, uint(11))
	}

	f.Fuzz(func(t *testing.T, sel byte, a, b uint64, x, y, z, tm float64, flag bool, n uint) {
		m := buildFuzzMessage(sel, a, b, x, y, z, tm, flag, n)

		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(m); err != nil {
			t.Fatalf("encode failed for %T: %v", m, err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		if want := EncodedSize(m); want != len(first) {
			t.Errorf("EncodedSize(%T) = %d, frame is %d bytes", m, want, len(first))
		}

		dec, err := NewReader(bytes.NewReader(first)).Read()
		if err != nil {
			t.Fatalf("decode of encoder output failed for %T: %v", m, err)
		}
		var buf2 bytes.Buffer
		if err := NewWriter(&buf2).Write(dec); err != nil {
			t.Fatalf("re-encode failed for %T: %v", dec, err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatalf("round trip changed encoding of %T:\n first %x\nsecond %x", m, first, buf2.Bytes())
		}
	})
}

// fuzzMessageKinds is the number of messages buildFuzzMessage selects
// between.
const fuzzMessageKinds = 13

// buildFuzzMessage derives one structured message of every protocol
// type from the fuzzer's scalars.
func buildFuzzMessage(sel byte, a, b uint64, x, y, z, tm float64, flag bool, n uint) Message {
	k := int(n % 4)
	wps := make([]geo.TimedPoint, 0, k)
	for i := 0; i < k; i++ {
		wps = append(wps, geo.TimedPoint{P: geo.Pt(x+float64(i), y-float64(i)), T: tm + float64(i)})
	}
	qu := core.QueryUpdate{
		ID: core.QueryID(a), Kind: core.QueryKind(n % 3),
		Region: geo.Rect{MinX: x, MinY: y, MaxX: x + z, MaxY: y + z},
		Focal:  geo.Pt(y, x), K: int(b % 64), T1: tm, T2: tm + z, T: tm, Remove: flag,
	}
	switch sel % fuzzMessageKinds {
	case 0:
		return ObjectReport{Update: core.ObjectUpdate{
			ID: core.ObjectID(a), Kind: core.ObjectKind(n % 3),
			Loc: geo.Pt(x, y), Vel: geo.Vec(z, -z), T: tm,
		}}
	case 1:
		return ObjectReport{Update: core.ObjectUpdate{
			ID: core.ObjectID(a), Kind: core.Predictive,
			Loc: geo.Pt(x, y), Vel: geo.Vec(z, -z), T: tm, Waypoints: wps,
		}}
	case 2:
		return ObjectReport{Update: core.ObjectUpdate{ID: core.ObjectID(a), Remove: true, T: tm}}
	case 3:
		return QueryReport{Update: qu}
	case 4:
		return Commit{Query: core.QueryID(a), Checksum: b}
	case 5:
		return CommitAck{Query: core.QueryID(a), Checksum: b}
	case 6:
		return Wakeup{Update: qu, Checksum: b}
	case 7, 8:
		us := make([]core.Update, 0, k)
		for i := 0; i < k; i++ {
			us = append(us, core.Update{
				Query: core.QueryID(a + uint64(i)), Object: core.ObjectID(b - uint64(i)),
				Positive: flag != (i%2 == 0),
			})
		}
		if sel%fuzzMessageKinds == 7 {
			return UpdateBatch{Time: tm, Updates: us}
		}
		return RecoveryDiff{Time: tm, Updates: us}
	case 9:
		ids := make([]core.ObjectID, 0, k)
		for i := 0; i < k; i++ {
			ids = append(ids, core.ObjectID(a+uint64(i)))
		}
		return FullAnswer{Query: core.QueryID(a), Time: tm, Objects: ids}
	case 10:
		return Heartbeat{Time: tm}
	case 11:
		return StatsRequest{}
	default:
		return StatsResponse{
			Stats: core.Stats{
				Steps: a, ObjectReports: b, QueryReports: a ^ b,
				PositiveUpdates: a + b, NegativeUpdates: a - b,
				KNNRecomputes: uint64(n), CandidateChecks: a * 3, RegionEvalCells: b * 5,
			},
			Objects: uint32(a), Queries: uint32(b), Uptime: tm,
		}
	}
}

// FuzzDecode feeds arbitrary frames to the reader: it must never panic,
// and any message it accepts must re-encode and re-decode to the same
// message (round-trip stability on the accepted subset).
func FuzzDecode(f *testing.F) {
	// Seed with every valid message type.
	seeds := []Message{
		ObjectReport{Update: core.ObjectUpdate{ID: 1, Kind: core.Moving, Loc: geo.Pt(1, 2), T: 3}},
		ObjectReport{Update: core.ObjectUpdate{
			ID: 2, Kind: core.Predictive, Loc: geo.Pt(1, 2), Vel: geo.Vec(0.1, 0.2), T: 3,
			Waypoints: []geo.TimedPoint{{P: geo.Pt(4, 5), T: 6}},
		}},
		QueryReport{Update: core.QueryUpdate{ID: 3, Kind: core.Range, Region: geo.R(0, 0, 1, 1)}},
		Commit{Query: 4, Checksum: 5},
		CommitAck{Query: 4, Checksum: 5},
		Wakeup{Update: core.QueryUpdate{ID: 6, Kind: core.KNN, Focal: geo.Pt(1, 1), K: 2}, Checksum: 7},
		UpdateBatch{Time: 8, Updates: []core.Update{{Query: 1, Object: 2, Positive: true}}},
		RecoveryDiff{Time: 9},
		FullAnswer{Query: 10, Time: 11, Objects: []core.ObjectID{1, 2, 3}},
		Heartbeat{Time: 12},
		StatsRequest{},
		StatsResponse{Stats: core.Stats{Steps: 1, ObjectReports: 2}, Objects: 3, Queries: 4, Uptime: 5},
	}
	frames := make([][]byte, 0, len(seeds)+len(retiredFrames))
	for _, m := range seeds {
		frames = append(frames, frameBytes(f, m))
	}
	// Frames of the retired types 12-18, as their last encoder wrote
	// them: the reader must reject each one.
	for _, h := range retiredFrames {
		frame, err := hex.DecodeString(h)
		if err != nil {
			f.Fatal(err)
		}
		frames = append(frames, frame)
	}
	for _, frame := range frames {
		f.Add(frame)
		// Hostile variants of every frame: truncations (a stalled or
		// partially-written connection) and single-bit flips (corruption
		// in transit).
		f.Add(frame[:len(frame)/2])
		f.Add(frame[:len(frame)-1])
		for _, bit := range []int{0, 7, len(frame)*4 + 1, len(frame)*8 - 1} {
			mut := append([]byte(nil), frame...)
			mut[bit/8] ^= 1 << (bit % 8)
			f.Add(mut)
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0x01})
	// A maximal claimed length with no payload behind it.
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0x03, byte(MsgUpdateBatch)})

	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := NewReader(bytes.NewReader(data)).Read()
		// The unboxed entry accepts and rejects alike, and decodes the
		// same message. An object report overwrites every field of a
		// destination that held an earlier report; any other message
		// leaves it alone.
		u := core.ObjectUpdate{ID: 9, Remove: true, Waypoints: []geo.TimedPoint{{T: 1}}}
		unboxed, uerr := NewReader(bytes.NewReader(data)).ReadObject(&u)
		if (err == nil) != (uerr == nil) {
			t.Fatalf("Read error %v, ReadObject error %v", err, uerr)
		}
		if err != nil {
			if msg != nil {
				t.Fatalf("rejected frame returned a message: %v", err)
			}
			return // rejected input is fine; panics are not
		}
		if _, ok := msg.(ObjectReport); ok == (unboxed != nil) {
			t.Fatalf("Read decoded %T, ReadObject returned %T", msg, unboxed)
		} else if ok {
			unboxed = ObjectReport{Update: u}
		} else if u.ID != 9 || len(u.Waypoints) != 1 {
			t.Fatalf("ReadObject of a %T wrote its destination: %+v", msg, u)
		}
		if want, got := frameBytes(t, msg), frameBytes(t, unboxed); !bytes.Equal(want, got) {
			t.Fatalf("ReadObject decoded %x, Read decoded %x", got, want)
		}
		// Accepted: must round-trip. Compare the canonical encodings rather
		// than the structs — NaN payloads are legal on the wire but are not
		// reflect.DeepEqual to themselves.
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(msg); err != nil {
			t.Fatalf("re-encode of accepted message failed: %v", err)
		}
		first := append([]byte(nil), buf.Bytes()...)
		again, err := NewReader(&buf).Read()
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		var buf2 bytes.Buffer
		if err := NewWriter(&buf2).Write(again); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(first, buf2.Bytes()) {
			t.Fatalf("round trip changed encoding:\n first %x\nsecond %x", first, buf2.Bytes())
		}
	})
}

// retiredFrames holds one frame of each retired message type, 12 to 18
// in order: hello, assign, step, step result, resync, resync ack and
// retire. Each payload ends in the FNV-1a checksum those types carried.
// No current type has these numbers, so a reader rejects every one.
var retiredFrames = []string{
	"140000000c02000000030000000000000094f7deb1ff62fee1",
	"680000000d010000000400000000000000000000000000000000000000000000000000000000000040000000000000004010000000000000000000494000000000000000000000000000000000000000000000f03f0000000000000040000000000000d03f21ce7ddc0ede16d3",
	"b00000000e010000000400000000000000000000000000144001000000010000000000000001000000000000e03f000000000000e03f00000000000000000000000000000000000000000000144000000000000100000002000000000000000000000000000000000000000000000000000000000000f03f000000000000f03f000000000000000000000000000000000000000000000000000000000000000000000000000000000000144000b606d599575b7191",
	"810000000f01000000040000000000000000000000000014400100000002000000000000000100000000000000010100000000000000020000000000000003000000000000000400000000000000050000000000000006000000000000000700000000000000080000000000000009000000000000000a000000000000006ee7af78f1bdd826",
	"b10000001001000000050000000000000001000000000000144001000000010000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000014400100000000010000000200000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000e03f000000000000e03f04000000000000000000000000000000000000000000000000001440003120d44d1f9b0bdb",
	"1c00000011010000000500000000000000efbeadde0000000097d6f5df789991a2",
	"1400000012010000000600000000000000a29763ac279f2e21",
}

// frameBytes returns m's frame.
func frameBytes(t testing.TB, m Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(m); err != nil {
		t.Fatalf("encode %T: %v", m, err)
	}
	return buf.Bytes()
}
