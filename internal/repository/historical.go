package repository

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// The paper frames spatio-temporal range queries as asking "about the
// past, present, or the future". Present and future queries are the
// engine's continuous Range and PredictiveRange kinds; past queries are
// answered here, from the repository's location archive, as one-shot
// snapshot queries.

// HistoricalRange returns the IDs of objects that reported a location
// inside region at some time in [t1, t2], in ascending order. It scans
// the archive; the repository favors a simple, robust append-only log
// over read-optimized indexing, matching its role in the paper.
func (r *Repository) HistoricalRange(region geo.Rect, t1, t2 float64) ([]core.ObjectID, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	seen := map[core.ObjectID]struct{}{}
	_, err := r.locations.scan(func(_ int64, payload []byte) bool {
		rec, ok := decodeLocation(payload)
		if !ok {
			return true
		}
		if rec.T < t1 || rec.T > t2 {
			return true
		}
		if region.Contains(rec.Loc) {
			seen[rec.ID] = struct{}{}
		}
		return true
	})
	if err != nil {
		return nil, err
	}
	out := make([]core.ObjectID, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Trajectory returns the archived reports of one object within [t1, t2],
// sorted by report time — the historical counterpart of a predictive
// object's future trajectory. It reads through the object index; reports
// with equal times keep their append order.
func (r *Repository) Trajectory(id core.ObjectID, t1, t2 float64) ([]LocationRecord, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	offsets := r.index[id]
	out := make([]LocationRecord, 0, len(offsets))
	for _, off := range offsets {
		payload, err := r.locations.readAt(off)
		if err != nil {
			return nil, err
		}
		rec, ok := decodeLocation(payload)
		if !ok || rec.ID != id {
			return nil, fmt.Errorf("repository: index points at foreign record at offset %d", off)
		}
		if rec.T >= t1 && rec.T <= t2 {
			out = append(out, rec)
		}
	}
	slices.SortStableFunc(out, func(a, b LocationRecord) int { return cmp.Compare(a.T, b.T) })
	return out, nil
}

func decodeLocation(payload []byte) (LocationRecord, bool) {
	if len(payload) != locationRecordSize {
		return LocationRecord{}, false
	}
	return LocationRecord{
		ID: core.ObjectID(binary.LittleEndian.Uint64(payload[0:])),
		Loc: geo.Pt(
			math.Float64frombits(binary.LittleEndian.Uint64(payload[8:])),
			math.Float64frombits(binary.LittleEndian.Uint64(payload[16:])),
		),
		T: math.Float64frombits(binary.LittleEndian.Uint64(payload[24:])),
	}, true
}
