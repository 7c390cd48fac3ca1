package repository

import (
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

func TestLocationHistoryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := r.AppendLocation(LocationRecord{ID: 7, Loc: geo.Pt(float64(i), float64(i)), T: float64(i)}); err != nil {
			t.Fatal(err)
		}
		if err := r.AppendLocation(LocationRecord{ID: 8, Loc: geo.Pt(0, 0), T: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	hist, err := r.History(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 10 {
		t.Fatalf("history length = %d", len(hist))
	}
	for i, rec := range hist {
		if rec.T != float64(i) || rec.Loc.X != float64(i) {
			t.Fatalf("record %d = %+v", i, rec)
		}
	}
	if r.NumArchivedBytes() == 0 {
		t.Error("archive should be non-empty")
	}
	// Out-of-order reports are sorted by time; equal times keep their
	// append order.
	for _, rec := range []LocationRecord{
		{ID: 9, Loc: geo.Pt(0, 0), T: 2},
		{ID: 9, Loc: geo.Pt(1, 0), T: 1},
		{ID: 9, Loc: geo.Pt(2, 0), T: 2},
		{ID: 9, Loc: geo.Pt(3, 0), T: 1},
	} {
		if err := r.AppendLocation(rec); err != nil {
			t.Fatal(err)
		}
	}
	checkTies := func(r *Repository) {
		t.Helper()
		hist, err := r.History(9)
		if err != nil {
			t.Fatal(err)
		}
		var xs []float64
		for _, rec := range hist {
			xs = append(xs, rec.Loc.X)
		}
		if len(xs) != 4 || xs[0] != 1 || xs[1] != 3 || xs[2] != 0 || xs[3] != 2 {
			t.Fatalf("history of 9 by X = %v, want [1 3 0 2]", xs)
		}
	}
	checkTies(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: history persists.
	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hist, _ = r.History(7)
	if len(hist) != 10 {
		t.Fatalf("after reopen: %d", len(hist))
	}
	if empty, _ := r.History(999); len(empty) != 0 {
		t.Fatalf("unknown object history: %v", empty)
	}
	checkTies(r)
}

func TestCommittedAnswersPersist(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Committed(1); ok {
		t.Error("empty repository should have no commits")
	}
	if err := r.CommitAnswer(1, []core.ObjectID{3, 1, 4}); err != nil {
		t.Fatal(err)
	}
	if err := r.CommitAnswer(2, []core.ObjectID{}); err != nil {
		t.Fatal(err)
	}
	// Latest wins.
	if err := r.CommitAnswer(1, []core.ObjectID{5}); err != nil {
		t.Fatal(err)
	}
	got, ok := r.Committed(1)
	if !ok || len(got) != 1 || got[0] != 5 {
		t.Fatalf("Committed(1) = %v, %v", got, ok)
	}
	if got, ok := r.Committed(2); !ok || len(got) != 0 {
		t.Fatalf("Committed(2) = %v, %v", got, ok)
	}
	if err := r.Sync(); err != nil {
		t.Fatal(err)
	}
	r.Close()

	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, ok = r.Committed(1)
	if !ok || len(got) != 1 || got[0] != 5 {
		t.Fatalf("after reopen Committed(1) = %v, %v", got, ok)
	}
	if got, ok := r.Committed(2); !ok || len(got) != 0 {
		t.Fatalf("after reopen Committed(2) = %v, %v", got, ok)
	}

	// Erase a commit (query removed) and persist that too.
	if err := r.CommitAnswer(1, nil); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Committed(1); ok {
		t.Error("erased commit still present")
	}
	r.Close()
	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, ok := r.Committed(1); ok {
		t.Error("erased commit resurrected after reopen")
	}
}

func TestStationaryCatalog(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := core.ObjectID(1); i <= 200; i++ {
		if err := r.PutStationary(i, geo.Pt(float64(i), 0)); err != nil {
			t.Fatal(err)
		}
	}
	cat := catalog(t, r)
	if loc, ok := cat[42]; !ok || loc.X != 42 {
		t.Fatalf("catalog[42] = %v %v", loc, ok)
	}
	if _, ok := cat[999]; ok {
		t.Error("unknown stationary object found")
	}

	// Relocation replaces.
	if err := r.PutStationary(42, geo.Pt(-1, -1)); err != nil {
		t.Fatal(err)
	}
	if loc := catalog(t, r)[42]; loc.X != -1 {
		t.Fatalf("relocated = %v", loc)
	}

	// Deletion.
	if ok, err := r.DeleteStationary(42); err != nil || !ok {
		t.Fatalf("delete: %v %v", ok, err)
	}
	if ok, _ := r.DeleteStationary(42); ok {
		t.Error("double delete succeeded")
	}
	r.Close()

	// Catalog persists across reopen.
	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	cat = catalog(t, r)
	if len(cat) != 199 {
		t.Fatalf("catalog count after reopen = %d", len(cat))
	}
	if _, ok := cat[41]; !ok {
		t.Error("lost object 41 across reopen")
	}
	if _, ok := cat[42]; ok {
		t.Error("deleted object 42 resurrected across reopen")
	}

	// Early stop.
	n := 0
	if err := r.VisitStationary(func(core.ObjectID, geo.Point) bool { n++; return n < 3 }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop visited %d", n)
	}
}

// catalog collects the stationary catalog via VisitStationary, checking
// that it visits in ascending ID order.
func catalog(t *testing.T, r *Repository) map[core.ObjectID]geo.Point {
	t.Helper()
	out := map[core.ObjectID]geo.Point{}
	prev := core.ObjectID(0)
	err := r.VisitStationary(func(id core.ObjectID, loc geo.Point) bool {
		if len(out) > 0 && id <= prev {
			t.Errorf("VisitStationary: %d after %d", id, prev)
		}
		prev = id
		out[id] = loc
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStationaryCatalogRandomizedAgainstMap drives puts, relocations and
// deletes against a map oracle; the replayed catalog must match it.
func TestStationaryCatalogRandomizedAgainstMap(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	oracle := map[core.ObjectID]geo.Point{}
	for i := 0; i < 2000; i++ {
		id := core.ObjectID(rng.Intn(100))
		if rng.Intn(3) == 0 {
			_, live := oracle[id]
			ok, err := r.DeleteStationary(id)
			if err != nil || ok != live {
				t.Fatalf("delete %d = %v, %v; live %v", id, ok, err, live)
			}
			delete(oracle, id)
			continue
		}
		loc := geo.Pt(rng.Float64(), rng.Float64())
		if err := r.PutStationary(id, loc); err != nil {
			t.Fatal(err)
		}
		oracle[id] = loc
	}
	check := func(r *Repository) {
		t.Helper()
		cat := catalog(t, r)
		if len(cat) != len(oracle) {
			t.Fatalf("catalog has %d objects, oracle %d", len(cat), len(oracle))
		}
		for id, want := range oracle {
			if cat[id] != want {
				t.Fatalf("object %d at %v, want %v", id, cat[id], want)
			}
		}
	}
	check(r)
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r)
}

func TestHistoricalRangeAndTrajectory(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	// Object 1 crosses the region during [2,4]; object 2 never enters;
	// object 3 is inside but only at t=10.
	for i := 0; i <= 5; i++ {
		r.AppendLocation(LocationRecord{ID: 1, Loc: geo.Pt(float64(i), 5), T: float64(i)})
	}
	r.AppendLocation(LocationRecord{ID: 2, Loc: geo.Pt(9, 9), T: 3})
	r.AppendLocation(LocationRecord{ID: 3, Loc: geo.Pt(3, 5), T: 10})

	got, err := r.HistoricalRange(geo.R(2, 4, 4, 6), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("HistoricalRange = %v, want [1]", got)
	}

	// Widening the window picks up object 3.
	got, _ = r.HistoricalRange(geo.R(2, 4, 4, 6), 2, 20)
	if len(got) != 2 || got[0] != 1 || got[1] != 3 {
		t.Fatalf("wide HistoricalRange = %v, want [1 3]", got)
	}

	// Empty result outside all reports.
	got, _ = r.HistoricalRange(geo.R(2, 4, 4, 6), 100, 200)
	if len(got) != 0 {
		t.Fatalf("late window = %v", got)
	}

	traj, err := r.Trajectory(1, 1.5, 3.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(traj) != 2 || traj[0].T != 2 || traj[1].T != 3 {
		t.Fatalf("Trajectory = %+v", traj)
	}
}

func TestLocationIndexCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		r.AppendLocation(LocationRecord{ID: core.ObjectID(i % 7), Loc: geo.Pt(float64(i), 0), T: float64(i)})
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	check := func(r *Repository) {
		t.Helper()
		for id := core.ObjectID(0); id < 7; id++ {
			hist, err := r.History(id)
			if err != nil {
				t.Fatal(err)
			}
			want := 0
			for i := 0; i < 300; i++ {
				if core.ObjectID(i%7) == id {
					want++
				}
			}
			if len(hist) != want {
				t.Fatalf("object %d: %d records, want %d", id, len(hist), want)
			}
			for i := 1; i < len(hist); i++ {
				if hist[i].T < hist[i-1].T {
					t.Fatalf("object %d: history out of time order", id)
				}
			}
		}
	}

	// Clean reopen.
	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	check(r)
	r.Close()
}

// TestLocationIndexCatchUp appends records straight to the location log,
// bypassing the repository (as after a crash between the log append and
// anything else): reopening must index them.
func TestLocationIndexCatchUp(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r.AppendLocation(LocationRecord{ID: 1, Loc: geo.Pt(float64(i), 0), T: float64(i)})
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	log, err := openLog(filepath.Join(dir, "locations.log"), func(int64, []byte) {})
	if err != nil {
		t.Fatal(err)
	}
	for i := 50; i < 60; i++ {
		var buf [locationRecordSize]byte
		binary.LittleEndian.PutUint64(buf[0:], 1)
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(float64(i)))
		binary.LittleEndian.PutUint64(buf[16:], 0)
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(float64(i)))
		if _, err := log.append(buf[:]); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	hist, err := r.History(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 60 {
		t.Fatalf("history = %d records, want 60", len(hist))
	}
	if hist[59].T != 59 {
		t.Fatalf("tail record T = %v", hist[59].T)
	}
}

// TestConcurrentAppendAndHistory appends from several goroutines, each
// also reading history as it goes: the object index must stay consistent
// and lose no report.
func TestConcurrentAppendAndHistory(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const (
		writers = 4
		appends = 2000
		objects = 10
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < appends; i++ {
				id := core.ObjectID(i % objects)
				if err := r.AppendLocation(LocationRecord{ID: id, Loc: geo.Pt(float64(w), float64(i)), T: float64(i)}); err != nil {
					t.Error(err)
					return
				}
				if i%100 == 99 {
					if _, err := r.History(id); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	total := 0
	for id := core.ObjectID(0); id < objects; id++ {
		hist, err := r.History(id)
		if err != nil {
			t.Fatal(err)
		}
		total += len(hist)
	}
	if total != writers*appends {
		t.Fatalf("total history length = %d, want %d", total, writers*appends)
	}
}

func BenchmarkAppendLocation(b *testing.B) {
	r, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer r.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := LocationRecord{ID: core.ObjectID(i % 20000), Loc: geo.Pt(float64(i), 0), T: float64(i)}
		if err := r.AppendLocation(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOpenSkipsMalformedRecords replays logs holding intact frames whose
// payloads do not decode: Open skips them and keeps every good record.
func TestOpenSkipsMalformedRecords(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AppendLocation(LocationRecord{ID: 1, Loc: geo.Pt(1, 1), T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.CommitAnswer(1, []core.ObjectID{4}); err != nil {
		t.Fatal(err)
	}
	if err := r.PutStationary(1, geo.Pt(2, 2)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	badCommit := encodeCommit(1, []core.ObjectID{5, 6})
	for name, payloads := range map[string][][]byte{
		"locations.log": {[]byte("xyz")},
		"commits.log": {
			{1, 2, 3},                    // shorter than the header
			{1, 0, 0, 0, 0, 0, 0, 0, 1},  // present without a count
			badCommit[:len(badCommit)-8], // count promises more IDs than follow
		},
		"stationary.log": {[]byte("12345")},
	} {
		l, err := openLog(filepath.Join(dir, name), func(int64, []byte) {})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range payloads {
			if _, err := l.append(p); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
	}

	r, err = Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if hist, err := r.History(1); err != nil || len(hist) != 1 {
		t.Fatalf("History(1) = %v, %v", hist, err)
	}
	if got, err := r.HistoricalRange(geo.R(0, 0, 10, 10), 0, 10); err != nil || len(got) != 1 || got[0] != 1 {
		t.Fatalf("HistoricalRange = %v, %v", got, err)
	}
	if got, ok := r.Committed(1); !ok || len(got) != 1 || got[0] != 4 {
		t.Fatalf("Committed(1) = %v, %v", got, ok)
	}
	if cat := catalog(t, r); len(cat) != 1 || cat[1] != geo.Pt(2, 2) {
		t.Fatalf("catalog = %v", cat)
	}
}

// TestOpenFailsOnUnopenableLog makes each log in turn unopenable: Open
// fails instead of starting with that log missing.
func TestOpenFailsOnUnopenableLog(t *testing.T) {
	for _, name := range []string{"locations.log", "commits.log", "stationary.log"} {
		dir := t.TempDir()
		if err := os.Mkdir(filepath.Join(dir, name), 0o755); err != nil {
			t.Fatal(err)
		}
		if r, err := Open(dir); err == nil {
			r.Close()
			t.Errorf("Open with %s a directory succeeded", name)
		}
	}
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if r, err := Open(file); err == nil {
		r.Close()
		t.Error("Open of a regular file succeeded")
	}
}

// TestFailedWritesLeaveStateUnchanged closes the repository's files
// under it: every write reports an error and changes no in-memory state,
// and every read reports an error.
func TestFailedWritesLeaveStateUnchanged(t *testing.T) {
	r, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AppendLocation(LocationRecord{ID: 1, Loc: geo.Pt(1, 1), T: 1}); err != nil {
		t.Fatal(err)
	}
	if err := r.PutStationary(7, geo.Pt(7, 7)); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if err := r.AppendLocation(LocationRecord{ID: 2, T: 2}); err == nil {
		t.Error("AppendLocation on closed files succeeded")
	}
	if len(r.index[2]) != 0 {
		t.Error("failed AppendLocation indexed the report")
	}
	if err := r.CommitAnswer(1, []core.ObjectID{1}); err == nil {
		t.Error("CommitAnswer on closed files succeeded")
	}
	if _, ok := r.Committed(1); ok {
		t.Error("failed CommitAnswer changed the committed answer")
	}
	if err := r.PutStationary(8, geo.Pt(8, 8)); err == nil {
		t.Error("PutStationary on closed files succeeded")
	}
	if ok, err := r.DeleteStationary(7); err == nil || ok {
		t.Errorf("DeleteStationary on closed files = %v, %v", ok, err)
	}
	if cat := catalog(t, r); len(cat) != 1 || cat[7] != geo.Pt(7, 7) {
		t.Errorf("failed catalog writes changed it: %v", cat)
	}
	if err := r.Sync(); err == nil {
		t.Error("Sync on closed files succeeded")
	}
	if _, err := r.History(1); err == nil {
		t.Error("History on closed files succeeded")
	}
	if _, err := r.HistoricalRange(geo.R(0, 0, 10, 10), 0, 10); err == nil {
		t.Error("HistoricalRange on closed files succeeded")
	}
}

// TestHistoryReportsCorruptRecord damages archived records while the
// repository is open: History reports an error instead of returning
// garbage.
func TestHistoryReportsCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for id := core.ObjectID(1); id <= 2; id++ {
		if err := r.AppendLocation(LocationRecord{ID: id, Loc: geo.Pt(1, 1), T: 1}); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, "locations.log"), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	frame := int64(logFrameHeader + locationRecordSize)
	// Object 1: a flipped payload byte fails the checksum.
	if _, err := f.WriteAt([]byte{0xFF}, logFrameHeader+8); err != nil {
		t.Fatal(err)
	}
	// Object 2: a length field that runs past the end of the log.
	if _, err := f.WriteAt([]byte{0xFF, 0xFF}, frame); err != nil {
		t.Fatal(err)
	}
	for id := core.ObjectID(1); id <= 2; id++ {
		if hist, err := r.History(id); err == nil {
			t.Errorf("History(%d) of a corrupt record = %v, want an error", id, hist)
		}
	}
}
