package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"instability/internal/collector"
	"instability/internal/faults"
)

// Every append-only log the store keeps — the WAL, its rotated files, and
// sidecar logs — is a sequence of collector frames (collector/codec.go), so
// a torn tail (crash mid-write) is detected by length or checksum. frameLog
// is the file both kinds of log append to.
//
// A WAL frame is one group commit: the entries of every append since the
// last flush — FlushEvery records, or more when one AppendBatch call brings
// them — or one carried window's re-log. (WALs written before group-commit
// frames hold one entry per frame.) A sidecar frame is one small record.
// Nothing but the frame's u32 length prefix bounds a commit, so the writer
// checks it: an append that would carry the open frame's payload past
// maxFramePayload fails with ErrCommitTooLarge rather than wrap the prefix.

// maxFramePayload is the most payload a frame's length prefix can state; a
// variable so tests can reach it without gigabytes of appends.
var maxFramePayload int64 = math.MaxUint32

// ErrCommitTooLarge reports an append whose group commit would not fit one
// WAL frame. None of the failing call's unflushed records is stored.
var ErrCommitTooLarge = errors.New("store: group commit too large for one WAL frame")

// appendChecksum closes a v3 block or index section, b[from:], with its
// checksum (collector.Checksum, the one CRC every checked structure is
// guarded by).
func appendChecksum(b []byte, from int) []byte {
	return binary.BigEndian.AppendUint32(b, collector.Checksum(b[from:]))
}

// splitChecksum opens what appendChecksum closed: the bytes before the
// trailing checksum, and whether it matches them.
func splitChecksum(b []byte) ([]byte, bool) {
	n := len(b) - 4
	if n < 0 {
		return nil, false
	}
	return b[:n], collector.Checksum(b[:n]) == binary.BigEndian.Uint32(b[n:])
}

// frameLog is an append-only file of frames, positioned on a frame boundary.
type frameLog struct {
	f   faults.File
	off int64 // current append offset
	// broken is the error that left the file off a frame boundary: a failed
	// append whose torn bytes could not be cut away. Every later append
	// returns it, since a frame written behind the garbage would be
	// truncated away with it at the next open.
	broken error
}

// openFrameLog opens (creating if absent) the log at path and replays its
// intact frames into each. A torn or corrupt tail — and everything from the
// first frame each rejects — is physically truncated away, not merely
// skipped, so the next append lands on a clean frame boundary instead of
// burying readable frames behind garbage.
func openFrameLog(fsys faults.FS, path string, each func(payload []byte) error) (*frameLog, error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	fail := func(err error) (*frameLog, error) {
		f.Close()
		return nil, err
	}
	data, err := io.ReadAll(f)
	if err != nil {
		return fail(err)
	}
	off, _, _ := collector.ScanFrames(data, each)
	if off < int64(len(data)) {
		if err := f.Truncate(off); err != nil {
			return fail(err)
		}
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return fail(err)
	}
	return &frameLog{f: f, off: off}, nil
}

// append writes pre-encoded frames in one write (group commit). It is all
// or nothing: when the write or its sync fails, whatever part of the frames
// reached the file is truncated away and the offset returns to the last
// boundary, so a later append lands where these frames would have and none
// of them is recovered.
func (l *frameLog) append(frames []byte, sync bool) error {
	if l.broken != nil {
		return l.broken
	}
	if len(frames) == 0 {
		return nil
	}
	_, err := l.f.Write(frames)
	if err == nil && sync {
		err = l.f.Sync()
	}
	if err != nil {
		if terr := l.rewind(); terr != nil {
			l.broken = fmt.Errorf("store: log %s off a frame boundary: %w", l.f.Name(), terr)
		}
		return err
	}
	l.off += int64(len(frames))
	return nil
}

// rewind cuts the file back to the last frame boundary and puts the write
// position there.
func (l *frameLog) rewind() error {
	if err := l.f.Truncate(l.off); err != nil {
		return err
	}
	_, err := l.f.Seek(l.off, io.SeekStart)
	return err
}

func (l *frameLog) size() int64 { return l.off }

func (l *frameLog) close() error { return l.f.Close() }
