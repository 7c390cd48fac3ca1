package repository

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// appendLog is a checksummed append-only record log. Each record is
// framed as
//
//	uint32 length | uint32 crc32(payload) | payload
//
// A torn tail (partial or corrupt final records after a crash) is
// detected and truncated on open, so replays never yield corrupt
// records. The log has no lock of its own: the Repository's mutex
// serializes every call.
type appendLog struct {
	file *os.File
	size int64
	buf  []byte
}

const logFrameHeader = 8

// openLog opens (or creates) the log at path, calls fn for every intact
// record in append order, and truncates whatever follows the last intact
// record. The payload passed to fn is only valid during the call.
func openLog(path string, fn func(offset int64, payload []byte)) (*appendLog, error) {
	file, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("repository: open log: %w", err)
	}
	st, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("repository: stat log: %w", err)
	}
	l := &appendLog{file: file, size: st.Size()}
	valid, err := l.scan(func(off int64, payload []byte) bool {
		fn(off, payload)
		return true
	})
	if err != nil {
		file.Close()
		return nil, err
	}
	if err := file.Truncate(valid); err != nil {
		file.Close()
		return nil, fmt.Errorf("repository: truncate torn log tail: %w", err)
	}
	l.size = valid
	return l, nil
}

// scan calls fn for every intact record in append order, stopping early
// if fn returns false, and returns the offset just past the last record
// it read. A short or checksum-failing record ends the scan: records
// after it are unreachable. The payload passed to fn is only valid
// during the call.
func (l *appendLog) scan(fn func(offset int64, payload []byte) bool) (int64, error) {
	rd := bufio.NewReaderSize(io.NewSectionReader(l.file, 0, l.size), 1<<16)
	var (
		off     int64
		header  [logFrameHeader]byte
		payload []byte
	)
	for {
		if _, err := io.ReadFull(rd, header[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return off, nil
			}
			return off, fmt.Errorf("repository: read log header: %w", err)
		}
		length := int64(binary.LittleEndian.Uint32(header[0:]))
		next := off + logFrameHeader + length
		if next > l.size {
			return off, nil // torn tail
		}
		if int64(cap(payload)) < length {
			payload = make([]byte, length)
		}
		payload = payload[:length]
		if _, err := io.ReadFull(rd, payload); err != nil {
			return off, fmt.Errorf("repository: read log payload: %w", err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:]) {
			return off, nil
		}
		if !fn(off, payload) {
			return next, nil
		}
		off = next
	}
}

// append writes one record and returns its starting offset. The write is
// buffered by the OS; call sync for durability.
func (l *appendLog) append(payload []byte) (int64, error) {
	need := logFrameHeader + len(payload)
	if cap(l.buf) < need {
		l.buf = make([]byte, need)
	}
	frame := l.buf[:need]
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(payload))
	copy(frame[logFrameHeader:], payload)
	off := l.size
	if _, err := l.file.WriteAt(frame, off); err != nil {
		return 0, fmt.Errorf("repository: append log record: %w", err)
	}
	l.size += int64(need)
	return off, nil
}

// readAt returns the payload of the record starting at offset.
func (l *appendLog) readAt(offset int64) ([]byte, error) {
	var header [logFrameHeader]byte
	if offset < 0 || offset+logFrameHeader > l.size {
		return nil, fmt.Errorf("repository: log offset %d out of range", offset)
	}
	if _, err := l.file.ReadAt(header[:], offset); err != nil {
		return nil, fmt.Errorf("repository: read log header: %w", err)
	}
	length := int64(binary.LittleEndian.Uint32(header[0:]))
	if offset+logFrameHeader+length > l.size {
		return nil, fmt.Errorf("repository: corrupt log record at offset %d", offset)
	}
	payload := make([]byte, length)
	if _, err := l.file.ReadAt(payload, offset+logFrameHeader); err != nil {
		return nil, fmt.Errorf("repository: read log payload: %w", err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(header[4:]) {
		return nil, fmt.Errorf("repository: corrupt log record at offset %d", offset)
	}
	return payload, nil
}

// sync forces appended records to stable storage.
func (l *appendLog) sync() error {
	if err := l.file.Sync(); err != nil {
		return fmt.Errorf("repository: sync log: %w", err)
	}
	return nil
}

// Close flushes and closes the log.
func (l *appendLog) Close() error {
	if err := l.sync(); err != nil {
		l.file.Close()
		return err
	}
	return l.file.Close()
}
