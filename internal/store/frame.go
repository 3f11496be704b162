package store

import (
	"encoding/binary"
	"hash/crc32"
	"io"
	"os"

	"instability/internal/faults"
)

// Every append-only log the store keeps — the WAL, its rotated files, and
// sidecar logs — is a sequence of frames
//
//	u32 payloadLen | payload | u32 crc32(payload)
//
// so a torn tail (crash mid-write) is detected by length or checksum. This
// file is the one place that knows the layout: beginFrame/endFrame write it,
// scanFrames reads it, and frameLog is the file both kinds of log append to.

// checksum is the one CRC-32 (IEEE) every checked structure of the store is
// guarded by: log frames here, segment blocks and index sections since
// segment format v3.
func checksum(b []byte) uint32 { return crc32.ChecksumIEEE(b) }

// appendChecksum closes a v3 block or index section: b, then its checksum.
func appendChecksum(b []byte) []byte {
	return binary.BigEndian.AppendUint32(b, checksum(b))
}

// splitChecksum opens what appendChecksum closed: the bytes before the
// trailing checksum, and whether it matches them.
func splitChecksum(b []byte) ([]byte, bool) {
	n := len(b) - 4
	if n < 0 {
		return nil, false
	}
	return b[:n], checksum(b[:n]) == binary.BigEndian.Uint32(b[n:])
}

// beginFrame opens a frame at the end of b, reserving its length slot. The
// caller appends the payload straight onto the returned slice — no
// per-frame scratch buffer — and closes it with endFrame(b, lenAt).
func beginFrame(b []byte) (_ []byte, lenAt int) {
	return append(b, 0, 0, 0, 0), len(b)
}

// endFrame closes the frame opened at lenAt: everything appended since is
// the payload; its length is patched into the reserved slot and its checksum
// appended.
func endFrame(b []byte, lenAt int) []byte {
	payload := b[lenAt+4:]
	binary.BigEndian.PutUint32(b[lenAt:], uint32(len(payload)))
	return binary.BigEndian.AppendUint32(b, checksum(payload))
}

// scanFrames walks the intact frames at the front of data, calling each
// (when non-nil) with every payload, and returns the offset just past the
// last frame it accepted — always a frame boundary — and how many it
// accepted. It stops at the first torn or corrupt frame, or when each
// returns an error, which it passes back; the rejected frame is not counted
// and lies at or after the returned offset.
func scanFrames(data []byte, each func(payload []byte) error) (off int64, n int, err error) {
	b := data
	for len(b) >= 4 {
		plen := int(binary.BigEndian.Uint32(b))
		if plen <= 0 || len(b) < 4+plen+4 {
			break // torn tail
		}
		payload := b[4 : 4+plen]
		if checksum(payload) != binary.BigEndian.Uint32(b[4+plen:]) {
			break // corrupt tail
		}
		if each != nil {
			if err := each(payload); err != nil {
				return off, n, err
			}
		}
		n++
		step := 4 + plen + 4
		off += int64(step)
		b = b[step:]
	}
	return off, n, nil
}

// frameLog is an append-only file of frames, positioned on a frame boundary.
type frameLog struct {
	f   faults.File
	off int64 // current append offset
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
	off, _, _ := scanFrames(data, each)
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

// append writes pre-encoded frames in one write (group commit).
func (l *frameLog) append(frames []byte, sync bool) error {
	if len(frames) == 0 {
		return nil
	}
	if _, err := l.f.Write(frames); err != nil {
		return err
	}
	l.off += int64(len(frames))
	if sync {
		return l.f.Sync()
	}
	return nil
}

func (l *frameLog) size() int64 { return l.off }

func (l *frameLog) close() error { return l.f.Close() }
