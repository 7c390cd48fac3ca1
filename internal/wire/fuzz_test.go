package wire

import (
	"bytes"
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
	for sel := byte(0); sel < 20; sel++ {
		f.Add(sel, uint64(1), uint64(2), 0.5, 1.5, -0.25, 42.0, false, uint(3))
	}
	f.Add(byte(1), uint64(9), uint64(8), -1.0, 2.0, 0.5, -3.0, true, uint(17))
	f.Add(byte(14), uint64(7), uint64(3), 0.0, 1.0, 0.25, 9.0, true, uint(5))
	// Dedicated corners for the cluster control frames: a retirement at
	// the tile/epoch extremes, and an assignment with a non-default halo
	// region and speed bound. Their layout is pinned by
	// TestFrameBytesPinned; this round trip checks that it decodes back.
	f.Add(byte(11), uint64(1)<<32-1, ^uint64(0), 0.0, 0.0, 0.0, 0.0, false, uint(0))
	f.Add(byte(13), uint64(5), uint64(1), 0.125, 0.25, 0.5, 75.0, true, uint(63))

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
	switch sel % 20 {
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
		if sel%20 == 7 {
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
		return ClusterRetire{Tile: uint32(a), Epoch: b}
	case 12:
		return ClusterHello{Worker: uint32(a), Incarnation: b}
	case 13:
		return ClusterAssign{
			Tile: uint32(a), Epoch: b,
			Bounds: geo.Rect{MinX: x, MinY: y, MaxX: x + z, MaxY: y + z},
			GridN:  uint32(n%128) + 1, PredictiveHorizon: tm,
			Region:   geo.Rect{MinX: x, MinY: y, MaxX: x + z/2, MaxY: y + z/2},
			MaxSpeed: z,
		}
	case 14, 15:
		objs := make([]core.ObjectUpdate, 0, k)
		for i := 0; i < k; i++ {
			ou := core.ObjectUpdate{
				ID: core.ObjectID(a + uint64(i)), Kind: core.ObjectKind(uint(i) % 3),
				Loc: geo.Pt(x, y+float64(i)), Vel: geo.Vec(z, -z), T: tm, Remove: flag && i == 0,
			}
			if i%2 == 1 {
				ou.Waypoints = wps
			}
			objs = append(objs, ou)
		}
		qrys := make([]core.QueryUpdate, 0, k)
		for i := 0; i < k; i++ {
			q := qu
			q.ID = core.QueryID(b + uint64(i))
			qrys = append(qrys, q)
		}
		if sel%20 == 14 {
			return ClusterStep{Tile: uint32(n), Epoch: a, Time: tm, Objects: objs, Queries: qrys}
		}
		return ClusterResync{
			Tile: uint32(n), Epoch: a, HasStep: flag, LastStep: tm,
			Objects: objs, Queries: qrys,
		}
	case 16:
		us := make([]core.Update, 0, k)
		for i := 0; i < k; i++ {
			us = append(us, core.Update{
				Query: core.QueryID(a + uint64(i)), Object: core.ObjectID(b ^ uint64(i)),
				Positive: flag == (i%2 == 0),
			})
		}
		return ClusterStepResult{
			Tile: uint32(n), Epoch: a, Time: tm, Updates: us,
			Work: core.Stats{
				Steps: a, ObjectReports: b, ObjectsIndexed: a ^ b,
				QueryReports: a + b, RegionEvalCells: a - b, CandidateChecks: a * 3,
				JoinFindings: b * 5, KNNRecomputes: uint64(n),
				PositiveUpdates: a % 97, NegativeUpdates: b % 89,
			},
		}
	case 17:
		return ClusterResyncAck{Tile: uint32(a), Epoch: b, Checksum: a ^ b}
	case 18:
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
		// Cluster control frames: the hostile variants below exercise the
		// trailing payload checksum (a bit flip must fail the decode, not
		// deliver a silently corrupted tile batch).
		ClusterHello{Worker: 2, Incarnation: 3},
		ClusterAssign{
			Tile: 1, Epoch: 4, Bounds: geo.R(0, 0, 2, 2), GridN: 16, PredictiveHorizon: 50,
			Region: geo.R(0, 0, 1, 2), MaxSpeed: 0.25,
		},
		ClusterStep{
			Tile: 1, Epoch: 4, Time: 5,
			Objects: []core.ObjectUpdate{{ID: 1, Kind: core.Moving, Loc: geo.Pt(0.5, 0.5), T: 5}},
			Queries: []core.QueryUpdate{{ID: 2, Kind: core.Range, Region: geo.R(0, 0, 1, 1), T: 5}},
		},
		ClusterStepResult{
			Tile: 1, Epoch: 4, Time: 5,
			Updates: []core.Update{{Query: 2, Object: 1, Positive: true}},
			Work:    core.Stats{Steps: 1, CandidateChecks: 7, JoinFindings: 8},
		},
		ClusterResync{
			Tile: 1, Epoch: 5, HasStep: true, LastStep: 5,
			Objects: []core.ObjectUpdate{{ID: 1, Kind: core.Moving, Loc: geo.Pt(0.5, 0.5), T: 5}},
			Queries: []core.QueryUpdate{{ID: 2, Kind: core.Range, Region: geo.R(0, 0, 1, 1), T: 5}},
		},
		ClusterResyncAck{Tile: 1, Epoch: 5, Checksum: 0xdeadbeef},
		ClusterRetire{Tile: 1, Epoch: 6},
	}
	for _, m := range seeds {
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
		// Hostile variants of every valid frame: truncations (a stalled or
		// partially-written connection) and single-bit flips (corruption
		// in transit).
		frame := buf.Bytes()
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
		if err != nil {
			if msg != nil {
				t.Fatalf("rejected frame returned a message: %v", err)
			}
			return // rejected input is fine; panics are not
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
