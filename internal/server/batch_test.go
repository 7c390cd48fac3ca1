package server

import (
	"bytes"
	"io"
	"net"
	"testing"

	"cqp/internal/core"
	"cqp/internal/obs"
	"cqp/internal/wire"
)

// TestWriterBatchedDrainByteIdentical drives sessionWriter directly with
// a pre-filled outbox and proves the coalesced drain emits exactly the
// byte stream of the unbatched path: every queued frame encoded with a
// per-message wire.Writer.Write, concatenated. It also pins that the
// whole queue went out as ONE buffered write (a single write_batch
// observation covering all frames).
func TestWriterBatchedDrainByteIdentical(t *testing.T) {
	msgs := []wire.Message{
		wire.UpdateBatch{Time: 1, Updates: []core.Update{
			{Query: 1, Object: 2, Positive: true},
			{Query: 1, Object: 3, Positive: false},
		}},
		wire.Heartbeat{Time: 2},
		wire.CommitAck{Query: 4, Checksum: 99},
		wire.FullAnswer{Query: 4, Time: 3, Objects: []core.ObjectID{7, 8}},
		wire.RecoveryDiff{Time: 4, Updates: []core.Update{{Query: 5, Object: 6, Positive: true}}},
	}

	// The unbatched reference stream: one Write (encode + flush) each.
	var want bytes.Buffer
	uw := wire.NewWriter(&want)
	for _, m := range msgs {
		if err := uw.Write(m); err != nil {
			t.Fatal(err)
		}
	}

	reg := obs.NewRegistry()
	s := &Server{m: newServerMetrics(reg), logger: quietLogger()}
	local, remote := net.Pipe()
	sess := &session{
		conn:       local,
		w:          wire.NewWriter(local),
		outbox:     make(chan wire.Message, len(msgs)),
		writerDone: make(chan struct{}),
	}
	// Queue everything, then close: the writer's first wakeup must find
	// the whole backlog and drain it in one batch.
	for _, m := range msgs {
		sess.outbox <- m
	}
	sess.closeOutbox()

	type readResult struct {
		data []byte
		err  error
	}
	read := make(chan readResult, 1)
	go func() {
		data, err := io.ReadAll(remote)
		read <- readResult{data, err}
	}()
	go s.sessionWriter(sess)
	<-sess.writerDone

	got := <-read
	if got.err != nil {
		t.Fatalf("reading session stream: %v", got.err)
	}
	if !bytes.Equal(got.data, want.Bytes()) {
		t.Fatalf("batched drain stream diverges from unbatched path: %d vs %d bytes",
			len(got.data), want.Len())
	}

	// The whole backlog went out as one coalesced write.
	if got := reg.Counter("server.frames_out").Value(); got != uint64(len(msgs)) {
		t.Errorf("frames_out = %d, want %d", got, len(msgs))
	}
	if got := reg.Counter("server.bytes_out").Value(); got != uint64(want.Len()) {
		t.Errorf("bytes_out = %d, want %d", got, want.Len())
	}
	h := reg.Histogram("server.write_batch_frames", obs.SizeBuckets)
	if h.Count() != 1 || h.Sum() != int64(len(msgs)) {
		t.Errorf("write_batch_frames count=%d sum=%d, want one batch of %d frames",
			h.Count(), h.Sum(), len(msgs))
	}
}

// TestOutboxPolicies pins the full-outbox behavior at the send()
// layer: an overflowing frame kills the session and counts a shed.
func TestOutboxPolicies(t *testing.T) {
	reg := obs.NewRegistry()
	s := &Server{m: newServerMetrics(reg), logger: quietLogger()}
	local, _ := net.Pipe()
	sess := &session{
		conn:       local,
		w:          wire.NewWriter(local),
		outbox:     make(chan wire.Message, 1), // writer never drains it
		writerDone: make(chan struct{}),
	}

	s.send(sess, wire.Heartbeat{Time: 1}) // fills the outbox
	s.send(sess, wire.Heartbeat{Time: 2}) // overflows → shed
	if got := reg.Counter("server.sheds").Value(); got != 1 {
		t.Errorf("sheds = %d, want 1", got)
	}
	if !sess.isDead() {
		t.Error("a full outbox left the session alive")
	}
}
