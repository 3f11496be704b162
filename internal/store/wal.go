package store

import (
	"encoding/binary"
	"fmt"
	"path/filepath"

	"instability/internal/collector"
	"instability/internal/faults"
)

const walName = "wal.log"

// walRotName names a rotated WAL file. Rotation numbers are zero-padded so
// lexicographic directory order is replay order.
func walRotName(seq uint64) string { return fmt.Sprintf("wal-%08d.log", seq) }

// rotateWALLocked moves the live WAL aside under a rotation name and opens a
// fresh one, so a background seal can cover the rotated file's records while
// new appends keep landing durably. The rotated file is deleted only after
// every record it holds is in a renamed segment (see finishSeal); a crash at
// any point leaves either the rename undone (the file replays as wal.log
// would have) or done (it replays as a rotated WAL, deduped by sequence
// range). Returns "" when the live WAL is empty and nothing was rotated.
func (s *Store) rotateWALLocked() (string, error) {
	if s.wal.size() == 0 {
		return "", nil
	}
	active := filepath.Join(s.dir, walName)
	rotated := filepath.Join(s.dir, walRotName(s.walSeq))
	if err := s.fs.Rename(active, rotated); err != nil {
		return "", err
	}
	w, _, err := openWAL(s.fs, active)
	if err != nil {
		// Roll the rename back so the store still has a live WAL; the seal
		// that wanted the rotation aborts.
		s.fs.Rename(rotated, active)
		return "", err
	}
	s.walSeq++
	old := s.wal
	s.wal = w
	old.close()
	obsWALBytes.SetInt(0)
	return rotated, nil
}

// walEntry is one logged append: the record plus its (window, sequence)
// position, which is what makes recovery dedupe exact.
type walEntry struct {
	window  int64 // window start, unixnano
	seq     uint64
	rec     collector.Record
	payload []byte // the encoded entry, as read
}

// openWAL opens (creating if absent) the WAL at path — a frameLog whose
// frames each hold one group commit's walEntry encodings back to back — and
// replays their entries. A frame is accepted whole or not at all
// (decodeWALFrame): one that passes its checksum but does not decode to the
// end ends the replay like a torn tail does, and it and everything after it
// are truncated away. A WAL written one entry per frame, as builds before
// group-commit frames wrote it, is the one-entry case of the same loop.
func openWAL(fsys faults.FS, path string) (*frameLog, []walEntry, error) {
	var entries []walEntry
	w, err := openFrameLog(fsys, path, func(payload []byte) (err error) {
		entries, err = decodeWALFrame(entries, payload)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return w, entries, nil
}

// appendWALPayload encodes one row's walEntry onto b straight from its
// fields; an announcement's attribute bytes come from its handle.
func appendWALPayload(b []byte, window int64, seq uint64, r *memRec) []byte {
	b = binary.BigEndian.AppendUint64(b, uint64(window))
	b = binary.BigEndian.AppendUint64(b, seq)
	var wire []byte
	if r.attrs != nil {
		wire = r.attrs.Wire()
	}
	return collector.AppendRecordFields(b, r.ns, r.typ, r.peerAS, r.peerAddr, r.prefix, wire)
}

// decodeWALFrame appends the entries of one WAL frame's payload to entries.
// It is all or nothing: when any entry does not decode, entries comes back
// as it was passed in.
func decodeWALFrame(entries []walEntry, p []byte) ([]walEntry, error) {
	n := len(entries)
	for len(p) > 0 {
		var ent walEntry
		if len(p) < 16 {
			return entries[:n], fmt.Errorf("%w: WAL entry", ErrCorrupt)
		}
		ent.window = int64(binary.BigEndian.Uint64(p))
		ent.seq = binary.BigEndian.Uint64(p[8:])
		rec, rest, err := collector.DecodeRecord(p[16:])
		if err != nil {
			return entries[:n], fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
		ent.rec, ent.payload, p = rec, p[:len(p)-len(rest)], rest
		entries = append(entries, ent)
	}
	return entries, nil
}
