// Checkpoint: the control-plane sidecar to the record log. The WAL makes
// admitted *data* durable; the checkpoint makes the *decisions* durable —
// the supervisor's last allocation, its round count and cooldown — so a
// restarted process resumes scaling from where it was
// instead of re-learning the workload from a cold controller. Sequence
// numbers and the watermark are the log's own; the checkpoint does not
// repeat them.

package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// checkpointFile is the checkpoint's name inside the WAL directory.
const checkpointFile = "checkpoint.json"

// Checkpoint is the periodically persisted topology/control state. It is
// written atomically (tmp + rename) beside the segments; a missing file
// means a cold start, a malformed one is an error (never silently
// ignored — it may carry a lease the scheduler must re-grant).
//
// It carries what a boot reads. A file written by an older binary may
// also carry seq, watermark, slots, admitted, completed and shed keys;
// decoding ignores them.
type Checkpoint struct {
	// Alloc is the supervisor's last applied allocation, operator name ->
	// parallelism.
	Alloc map[string]int `json:"alloc,omitempty"`
	// Rounds is the supervisor's completed control rounds.
	Rounds int64 `json:"rounds"`
	// CooldownMS is the remaining supervisor cooldown at capture time, in
	// milliseconds — re-imposed on restart so a crash cannot flap around
	// hysteresis the prior life earned.
	CooldownMS int64 `json:"cooldown_ms,omitempty"`
}

// SaveCheckpoint atomically replaces the checkpoint in dir.
func SaveCheckpoint(dir string, c Checkpoint) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, checkpointFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	f, err := os.Open(tmp)
	if err != nil {
		return err
	}
	// fsync the tmp file before the rename: a rename is only atomic on
	// disk if the content it points at is.
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	f.Close()
	return os.Rename(tmp, filepath.Join(dir, checkpointFile))
}

// LoadCheckpoint reads the checkpoint from dir. ok is false (with a nil
// error) when no checkpoint exists — a cold start.
func LoadCheckpoint(dir string) (c Checkpoint, ok bool, err error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointFile))
	if errors.Is(err, os.ErrNotExist) {
		return Checkpoint{}, false, nil
	}
	if err != nil {
		return Checkpoint{}, false, err
	}
	if err := json.Unmarshal(data, &c); err != nil {
		return Checkpoint{}, false, fmt.Errorf("wal: bad checkpoint: %w", err)
	}
	return c, true, nil
}
