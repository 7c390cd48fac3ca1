package wire

import (
	"bytes"
	"encoding/hex"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// pinnedFrames is one frame of every message type, with every field set
// to a distinct value so a swapped or resized field shows up as a
// changed byte.
var pinnedFrames = []struct {
	m   Message
	hex string
}{
	{ObjectReport{Update: core.ObjectUpdate{
		ID: 0x0102030405060708, Kind: core.Predictive, Loc: geo.Pt(1.5, -2.25),
		Vel: geo.Vec(0.125, -0.5), T: 99.5,
		Waypoints: []geo.TimedPoint{{P: geo.Pt(3, 4), T: 100}, {P: geo.Pt(5, 6), T: 101}},
	}}, "6600000001080706050403020102000000000000f83f00000000000002c0000000000000c03f000000000000e0bf0000000000e058400002000000000000000000084000000000000010400000000000005940000000000000144000000000000018400000000000405940"},
	{QueryReport{Update: core.QueryUpdate{
		ID: 9, Kind: core.PredictiveRange, Region: geo.R(0.5, 1, 2, 3), Focal: geo.Pt(7, 8), K: 3,
		T1: 10, T2: 20, T: 7, Remove: true,
	}}, "5600000002090000000000000002000000000000e03f000000000000f03f000000000000004000000000000008400000000000001c40000000000000204003000000000000000000244000000000000034400000000000001c4001"},
	{Commit{Query: 5, Checksum: 0xDEADBEEFCAFEF00D}, "100000000305000000000000000df0fecaefbeadde"},
	{Wakeup{Update: core.QueryUpdate{ID: 6, Kind: core.KNN, Focal: geo.Pt(1, 1), K: 2, T: 4}, Checksum: 77},
		"5e000000040600000000000000010000000000000000000000000000000000000000000000000000000000000000000000000000f03f000000000000f03f02000000000000000000000000000000000000000000000000001040004d00000000000000"},
	{UpdateBatch{Time: 12.5, Updates: []core.Update{
		{Query: 1, Object: 2, Positive: true}, {Query: 1, Object: 3},
	}}, "2e0000000500000000000029400200000001000000000000000200000000000000010100000000000000030000000000000000"},
	{RecoveryDiff{Time: 3, Updates: []core.Update{{Query: 9, Object: 1, Positive: true}}},
		"1d000000060000000000000840010000000900000000000000010000000000000001"},
	{FullAnswer{Query: 8, Time: 44, Objects: []core.ObjectID{1, 5, 9}},
		"2c000000070800000000000000000000000000464003000000010000000000000005000000000000000900000000000000"},
	{CommitAck{Query: 5, Checksum: 0xFEED}, "10000000080500000000000000edfe000000000000"},
	{StatsRequest{}, "0000000009"},
	{StatsResponse{
		Stats: core.Stats{Steps: 1, ObjectReports: 2, QueryReports: 3, PositiveUpdates: 4,
			NegativeUpdates: 5, KNNRecomputes: 6, CandidateChecks: 7, RegionEvalCells: 8},
		Objects: 9, Queries: 10, Uptime: 11.5,
	}, "500000000a01000000000000000200000000000000030000000000000004000000000000000500000000000000060000000000000007000000000000000800000000000000090000000a0000000000000000002740"},
	{Heartbeat{Time: 33.25}, "080000000b0000000000a04040"},
}

// TestFrameBytesPinned fixes the wire format byte for byte: every frame
// must encode to its recorded bytes, and the recorded bytes must decode
// back to the frame. Round-trip tests cannot see a layout change made
// consistently on the encode and decode sides; this test can, so
// deployed clients keep interoperating.
func TestFrameBytesPinned(t *testing.T) {
	for _, tc := range pinnedFrames {
		var buf bytes.Buffer
		if err := NewWriter(&buf).Write(tc.m); err != nil {
			t.Fatalf("encode %T: %v", tc.m, err)
		}
		if got := hex.EncodeToString(buf.Bytes()); got != tc.hex {
			t.Errorf("%T encodes to\n %s\nwant\n %s", tc.m, got, tc.hex)
			continue
		}
		frame, _ := hex.DecodeString(tc.hex)
		got, err := NewReader(bytes.NewReader(frame)).Read()
		if err != nil {
			t.Fatalf("decode pinned %T: %v", tc.m, err)
		}
		if !equalMessages(got, tc.m) {
			t.Errorf("pinned %T decodes to\n %+v\nwant\n %+v", tc.m, got, tc.m)
		}
	}
}
