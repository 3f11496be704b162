package store

import (
	"encoding/json"
	"os"
	"sync"

	"instability/internal/collector"
	"instability/internal/faults"
)

// SidecarLog is a small append-only journal that rides alongside a store —
// the detector's alert stream persists through one. Entries are JSON
// payloads in the WAL's frame format (frame.go), so a torn tail (crash
// mid-write) is detected by length or checksum and physically truncated on
// open, and appends always land on a clean frame boundary. Volume is tiny
// (alerts, not updates), so every append syncs.
type SidecarLog struct {
	mu  sync.Mutex
	log *frameLog
}

// OpenSidecarLog opens (creating if absent) the sidecar log at path,
// truncating any torn or corrupt tail.
func OpenSidecarLog(path string) (*SidecarLog, error) {
	log, err := openFrameLog(faults.Disk{}, path, nil)
	if err != nil {
		return nil, err
	}
	return &SidecarLog{log: log}, nil
}

// Append marshals v and appends it as one framed, synced entry. Safe for
// concurrent use.
func (l *SidecarLog) Append(v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return err
	}
	frame, lenAt := collector.BeginFrame(make([]byte, 0, len(payload)+8))
	frame = collector.EndFrame(append(frame, payload...), lenAt)
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.append(frame, true)
}

// Close releases the log file.
func (l *SidecarLog) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.log.close()
}

// ReadSidecarLog replays every intact entry of the sidecar log at path into
// each, stopping at the first torn or corrupt frame (the tail a crashed
// writer left). A missing file is an empty log, not an error. Returns the
// number of entries read.
func ReadSidecarLog(path string, each func(payload []byte) error) (int, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return 0, nil
	} else if err != nil {
		return 0, err
	}
	_, n, err := collector.ScanFrames(data, each)
	return n, err
}
