package repository

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// openTestLog opens the log at path and returns it with copies of the
// records the open-time replay saw.
func openTestLog(t testing.TB, path string) (*appendLog, [][]byte) {
	t.Helper()
	var recs [][]byte
	l, err := openLog(path, func(_ int64, p []byte) {
		recs = append(recs, bytes.Clone(p))
	})
	if err != nil {
		t.Fatal(err)
	}
	return l, recs
}

// replayAll returns copies of every intact record, via scan.
func replayAll(t *testing.T, l *appendLog) [][]byte {
	t.Helper()
	var recs [][]byte
	if _, err := l.scan(func(_ int64, p []byte) bool {
		recs = append(recs, bytes.Clone(p))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

func TestLogAppendReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.log")
	l, _ := openTestLog(t, path)
	var want [][]byte
	for i := 0; i < 50; i++ {
		rec := []byte(fmt.Sprintf("record %d", i))
		want = append(want, rec)
		if _, err := l.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.sync(); err != nil {
		t.Fatal(err)
	}
	got := replayAll(t, l)
	if len(got) != len(want) {
		t.Fatalf("replayed %d, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: records survive; appends continue.
	l, got = openTestLog(t, path)
	defer l.Close()
	if len(got) != 50 {
		t.Fatalf("after reopen replayed %d", len(got))
	}
	if _, err := l.append([]byte("post-reopen")); err != nil {
		t.Fatal(err)
	}
	if got := replayAll(t, l); len(got) != 51 {
		t.Fatalf("after append replayed %d", len(got))
	}
}

func TestLogReplayEarlyStop(t *testing.T) {
	l, _ := openTestLog(t, filepath.Join(t.TempDir(), "s.log"))
	defer l.Close()
	var offs []int64
	for i := 0; i < 10; i++ {
		off, err := l.append([]byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	n := 0
	end, err := l.scan(func(int64, []byte) bool { n++; return n < 3 })
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("early stop replayed %d", n)
	}
	if end != offs[3] {
		t.Fatalf("early stop ended at %d, want %d", end, offs[3])
	}
}

func TestLogTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "torn.log")
	l, _ := openTestLog(t, path)
	for i := 0; i < 5; i++ {
		if _, err := l.append([]byte(fmt.Sprintf("intact %d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: write a frame header that promises more
	// bytes than exist.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x00, 0x00, 0x00, 1, 2, 3, 4, 'p', 'a', 'r'}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Reopen: torn tail is dropped, the 5 intact records remain, and new
	// appends land cleanly after them.
	l, recs := openTestLog(t, path)
	defer l.Close()
	if len(recs) != 5 || string(recs[4]) != "intact 4" {
		t.Fatalf("after torn tail: %q", recs)
	}
	if _, err := l.append([]byte("fresh")); err != nil {
		t.Fatal(err)
	}
	recs = replayAll(t, l)
	if len(recs) != 6 || string(recs[5]) != "fresh" {
		t.Fatalf("after fresh append: %q", recs)
	}
}

func TestLogCorruptPayloadStopsReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "corrupt.log")
	l, _ := openTestLog(t, path)
	for _, rec := range []string{"first", "second", "third"} {
		if _, err := l.append([]byte(rec)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip the last payload byte of the middle record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[2*logFrameHeader+len("first")+len("second")-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Records after the corrupt one are unreachable and truncated away.
	l, recs := openTestLog(t, path)
	defer l.Close()
	if len(recs) != 1 || string(recs[0]) != "first" {
		t.Fatalf("corrupt record not isolated: %q", recs)
	}
	if l.size != int64(logFrameHeader+len("first")) {
		t.Fatalf("size after truncation = %d", l.size)
	}
}

func TestLogSizeAndOffsets(t *testing.T) {
	l, _ := openTestLog(t, filepath.Join(t.TempDir(), "o.log"))
	defer l.Close()
	if l.size != 0 {
		t.Fatalf("initial size = %d", l.size)
	}
	off1, _ := l.append([]byte("aaaa"))
	off2, _ := l.append([]byte("bb"))
	if off1 != 0 {
		t.Fatalf("off1 = %d", off1)
	}
	if off2 != int64(logFrameHeader+4) {
		t.Fatalf("off2 = %d", off2)
	}
	if l.size != int64(2*logFrameHeader+6) {
		t.Fatalf("size = %d", l.size)
	}
}

func TestLogLargeRandomRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	path := filepath.Join(t.TempDir(), "big.log")
	l, _ := openTestLog(t, path)
	var want [][]byte
	for i := 0; i < 500; i++ {
		rec := make([]byte, rng.Intn(2000))
		rng.Read(rec)
		want = append(want, bytes.Clone(rec))
		if _, err := l.append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l, got := openTestLog(t, path)
	defer l.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d of %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestLogReadAt(t *testing.T) {
	l, _ := openTestLog(t, filepath.Join(t.TempDir(), "rf.log"))
	defer l.Close()
	var offs []int64
	for i := 0; i < 20; i++ {
		off, err := l.append([]byte{byte(i), byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, off)
	}
	for i, off := range offs {
		p, err := l.readAt(off)
		if err != nil || len(p) != 2 || p[0] != byte(i) {
			t.Fatalf("readAt(%d) = %v, %v", off, p, err)
		}
	}
	// Misaligned offset: checksum mismatch or range error, never garbage.
	if _, err := l.readAt(offs[1] + 3); err == nil {
		t.Error("misaligned readAt should fail")
	}
	if _, err := l.readAt(-1); err == nil {
		t.Error("negative offset should fail")
	}
	if _, err := l.readAt(l.size + 100); err == nil {
		t.Error("past-end offset should fail")
	}
}

func BenchmarkLogAppend(b *testing.B) {
	l, _ := openTestLog(b, filepath.Join(b.TempDir(), "bench.log"))
	defer l.Close()
	rec := make([]byte, 128)
	b.SetBytes(int64(len(rec) + logFrameHeader))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.append(rec); err != nil {
			b.Fatal(err)
		}
	}
}
