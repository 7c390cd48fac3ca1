// Package repository implements the paper's repository server: when a
// moving object or query sends new information, the old information
// becomes persistent here. It also persists the committed query answers
// that drive out-of-sync recovery across server restarts, and a catalog
// of stationary objects (gas stations, hospitals, ...).
//
// Persistence is three append-only checksummed logs: the location
// history, the commit stream and the stationary catalog. Open replays
// each log once to rebuild the in-memory state: a per-object index of
// location-record offsets, the latest committed answer per query, and
// the latest catalog entry per stationary object.
package repository

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"cqp/internal/core"
	"cqp/internal/geo"
)

// LocationRecord is one archived position report.
type LocationRecord struct {
	ID  core.ObjectID
	Loc geo.Point
	T   float64
}

// Repository is the persistent store behind the location-aware server.
// All methods are safe for concurrent use.
type Repository struct {
	mu        sync.Mutex
	locations *appendLog
	commits   *appendLog
	catalog   *appendLog

	index      map[core.ObjectID][]int64 // location-record offsets per object, in append order
	committed  map[core.QueryID][]core.ObjectID
	stationary map[core.ObjectID]geo.Point
}

// Open opens (creating if necessary) a repository in dir.
func Open(dir string) (*Repository, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repository: create dir: %w", err)
	}
	r := &Repository{
		index:      make(map[core.ObjectID][]int64),
		committed:  make(map[core.QueryID][]core.ObjectID),
		stationary: make(map[core.ObjectID]geo.Point),
	}
	var err error
	r.locations, err = openLog(filepath.Join(dir, "locations.log"), func(off int64, payload []byte) {
		if rec, ok := decodeLocation(payload); ok {
			r.index[rec.ID] = append(r.index[rec.ID], off)
		}
	})
	if err != nil {
		return nil, err
	}
	r.commits, err = openLog(filepath.Join(dir, "commits.log"), func(_ int64, payload []byte) {
		if q, objs, ok := decodeCommit(payload); ok {
			r.applyCommit(q, objs)
		}
	})
	if err != nil {
		r.locations.Close()
		return nil, err
	}
	r.catalog, err = openLog(filepath.Join(dir, "stationary.log"), func(_ int64, payload []byte) {
		if id, loc, present, ok := decodeStationary(payload); ok && present {
			r.stationary[id] = loc
		} else if ok {
			delete(r.stationary, id)
		}
	})
	if err != nil {
		r.locations.Close()
		r.commits.Close()
		return nil, err
	}
	return r, nil
}

// Close flushes and closes all logs.
func (r *Repository) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var first error
	for _, l := range []*appendLog{r.locations, r.commits, r.catalog} {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Sync forces all logs to stable storage.
func (r *Repository) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, l := range []*appendLog{r.locations, r.commits, r.catalog} {
		if err := l.sync(); err != nil {
			return err
		}
	}
	return nil
}

// --- Location history ---------------------------------------------------

const locationRecordSize = 8 + 8 + 8 + 8

// AppendLocation archives a position report and indexes it by object.
func (r *Repository) AppendLocation(rec LocationRecord) error {
	var buf [locationRecordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(rec.ID))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(rec.Loc.X))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(rec.Loc.Y))
	binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(rec.T))
	r.mu.Lock()
	defer r.mu.Unlock()
	off, err := r.locations.append(buf[:])
	if err != nil {
		return err
	}
	r.index[rec.ID] = append(r.index[rec.ID], off)
	return nil
}

// History returns the archived reports of one object, sorted by report
// time, via the object index.
func (r *Repository) History(id core.ObjectID) ([]LocationRecord, error) {
	return r.Trajectory(id, math.Inf(-1), math.Inf(1))
}

// NumArchivedBytes returns the size of the location history log.
func (r *Repository) NumArchivedBytes() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.locations.size
}

// --- Committed answers ----------------------------------------------------

// CommitAnswer durably records the committed answer of query q. A nil
// objs slice erases the entry (query removed).
func (r *Repository) CommitAnswer(q core.QueryID, objs []core.ObjectID) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.commits.append(encodeCommit(q, objs)); err != nil {
		return err
	}
	if objs != nil {
		objs = slices.Clone(objs)
	}
	r.applyCommit(q, objs)
	return nil
}

// applyCommit makes objs the committed answer of q; nil erases it.
func (r *Repository) applyCommit(q core.QueryID, objs []core.ObjectID) {
	if objs == nil {
		delete(r.committed, q)
	} else {
		r.committed[q] = objs
	}
}

// Committed returns the last committed answer of q, if any.
func (r *Repository) Committed(q core.QueryID) ([]core.ObjectID, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	objs, ok := r.committed[q]
	if !ok {
		return nil, false
	}
	out := make([]core.ObjectID, len(objs))
	copy(out, objs)
	return out, true
}

func encodeCommit(q core.QueryID, objs []core.ObjectID) []byte {
	// Layout: qid uint64 | present uint8 | count uint32 | ids...
	buf := make([]byte, 8+1+4+8*len(objs))
	binary.LittleEndian.PutUint64(buf[0:], uint64(q))
	if objs == nil {
		return buf[:9] // present = 0
	}
	buf[8] = 1
	binary.LittleEndian.PutUint32(buf[9:], uint32(len(objs)))
	for i, o := range objs {
		binary.LittleEndian.PutUint64(buf[13+8*i:], uint64(o))
	}
	return buf
}

func decodeCommit(payload []byte) (core.QueryID, []core.ObjectID, bool) {
	if len(payload) < 9 {
		return 0, nil, false
	}
	q := core.QueryID(binary.LittleEndian.Uint64(payload[0:]))
	if payload[8] == 0 {
		return q, nil, true
	}
	if len(payload) < 13 {
		return 0, nil, false
	}
	n := int(binary.LittleEndian.Uint32(payload[9:]))
	if len(payload) != 13+8*n {
		return 0, nil, false
	}
	objs := make([]core.ObjectID, n)
	for i := range objs {
		objs[i] = core.ObjectID(binary.LittleEndian.Uint64(payload[13+8*i:]))
	}
	return q, objs, true
}

// --- Stationary catalog ---------------------------------------------------

// A catalog record is a put (id | x | y) or, when only the ID is
// present, a delete tombstone. The latest record per ID wins.
const (
	stationaryTombstoneSize = 8
	stationaryRecordSize    = 8 + 8 + 8
)

// PutStationary registers (or relocates) a stationary object in the
// catalog.
func (r *Repository) PutStationary(id core.ObjectID, loc geo.Point) error {
	var buf [stationaryRecordSize]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(id))
	binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(loc.X))
	binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(loc.Y))
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, err := r.catalog.append(buf[:]); err != nil {
		return err
	}
	r.stationary[id] = loc
	return nil
}

// DeleteStationary removes a stationary object; it reports whether the
// object existed.
func (r *Repository) DeleteStationary(id core.ObjectID) (bool, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.stationary[id]; !ok {
		return false, nil
	}
	var buf [stationaryTombstoneSize]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(id))
	if _, err := r.catalog.append(buf[:]); err != nil {
		return false, err
	}
	delete(r.stationary, id)
	return true, nil
}

// VisitStationary calls fn for every cataloged stationary object in
// ascending ID order, stopping early if fn returns false.
func (r *Repository) VisitStationary(fn func(id core.ObjectID, loc geo.Point) bool) error {
	r.mu.Lock()
	ids := make([]core.ObjectID, 0, len(r.stationary))
	for id := range r.stationary {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	locs := make([]geo.Point, len(ids))
	for i, id := range ids {
		locs[i] = r.stationary[id]
	}
	r.mu.Unlock()
	for i, id := range ids {
		if !fn(id, locs[i]) {
			break
		}
	}
	return nil
}

func decodeStationary(rec []byte) (id core.ObjectID, loc geo.Point, present, ok bool) {
	switch len(rec) {
	case stationaryTombstoneSize:
		return core.ObjectID(binary.LittleEndian.Uint64(rec[0:])), geo.Point{}, false, true
	case stationaryRecordSize:
		return core.ObjectID(binary.LittleEndian.Uint64(rec[0:])),
			geo.Pt(
				math.Float64frombits(binary.LittleEndian.Uint64(rec[8:])),
				math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
			), true, true
	}
	return 0, geo.Point{}, false, false
}
