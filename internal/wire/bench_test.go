package wire

import (
	"bytes"
	"io"
	"testing"

	"cqp/internal/core"
	"cqp/internal/geo"
)

func benchBatch(n int) UpdateBatch {
	m := UpdateBatch{Time: 1}
	for i := 0; i < n; i++ {
		m.Updates = append(m.Updates, core.Update{
			Query: core.QueryID(i % 100), Object: core.ObjectID(i), Positive: i%3 != 0,
		})
	}
	return m
}

func BenchmarkWireEncodeBatch1000(b *testing.B) {
	m := benchBatch(1000)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := w.Write(m); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(EncodedSize(m)))
}

func BenchmarkWireDecodeBatch1000(b *testing.B) {
	m := benchBatch(1000)
	var buf bytes.Buffer
	NewWriter(&buf).Write(m)
	frame := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewReader(bytes.NewReader(frame)).Read(); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(frame)))
}

func benchObjectReport() Message {
	return ObjectReport{Update: core.ObjectUpdate{
		ID: 42, Kind: core.Moving, Loc: geo.Pt(0.25, 0.75), Vel: geo.Vec(0.01, -0.02), T: 7,
	}}
}

// BenchmarkWireEncodeObjectReport times the client's per-report send:
// one ObjectReport frame encoded and flushed.
func BenchmarkWireEncodeObjectReport(b *testing.B) {
	m := benchObjectReport()
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(m); err != nil {
			b.Fatal(err)
		}
	}
}

// repeatReader replays one frame forever, so a single Reader can decode
// it b.N times without re-allocating its buffers.
type repeatReader struct {
	frame []byte
	off   int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.off:])
	r.off = (r.off + n) % len(r.frame)
	return n, nil
}

// BenchmarkWireDecodeObjectReport times the server's per-report ingest
// decode; the one allocation is the decoded message's interface box.
func BenchmarkWireDecodeObjectReport(b *testing.B) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Write(benchObjectReport()); err != nil {
		b.Fatal(err)
	}
	r := NewReader(&repeatReader{frame: buf.Bytes()})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := r.Read(); err != nil {
			b.Fatal(err)
		}
	}
}
