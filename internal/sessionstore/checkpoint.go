package sessionstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"qgov/internal/atomicfile"
)

// CheckpointStore persists frozen session learning state keyed by
// session id. It abstracts where checkpoints live: the serving layer
// reads and writes ids, never paths, so a replica fleet can point every
// member at shared storage and hand sessions off by checkpointing on one
// replica and restoring on another. Dir is the local-directory
// implementation; a shared-blob implementation slots in behind the same
// interface.
//
// Save must be atomic with respect to Load: a concurrent Load returns
// either the previous checkpoint or the new one, never a torn write.
//
// Save must not retain state after it returns: the checkpoint sweep
// encodes every session into one reused buffer, so the bytes change under
// any reference kept past the call.
type CheckpointStore interface {
	// Save durably replaces the checkpoint for id. It must not retain
	// state after it returns.
	Save(id string, state []byte) error
	// Load returns the checkpoint for id, or an error satisfying
	// errors.Is(err, fs.ErrNotExist) when none exists.
	Load(id string) ([]byte, error)
	// Delete removes the checkpoint for id; deleting an absent
	// checkpoint is not an error.
	Delete(id string) error
	// List returns the ids that currently have checkpoints.
	List() ([]string, error)
}

// stateSuffix names checkpoint files: "<id>.state", the layout rtmd has
// always used, so existing checkpoint directories stay readable.
const stateSuffix = ".state"

// Dir is the local-directory CheckpointStore: one "<id>.state" file per
// session, written atomically (temp file + rename).
type Dir struct {
	dir string
}

// NewDir creates the directory if needed and sweeps out stale temp
// files a crashed writer left behind (they hold torn state by
// definition). Fresh temp files are left alone — on shared storage they
// belong to a sibling replica mid-Save (atomicfile owns the age gate).
func NewDir(dir string) (*Dir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sessionstore: checkpoint dir: %w", err)
	}
	// Fail fast on an unreadable directory — the sweep ignores walk
	// errors by design, but a store New cannot list must not limp into
	// serving only to fail on the first Save.
	if _, err := os.ReadDir(dir); err != nil {
		return nil, fmt.Errorf("sessionstore: checkpoint dir: %w", err)
	}
	atomicfile.SweepTemps(dir, tmpPrefix)
	return &Dir{dir: dir}, nil
}

// Path returns the directory backing the store.
func (d *Dir) Path() string { return d.dir }

func (d *Dir) file(id string) string {
	return filepath.Join(d.dir, id+stateSuffix)
}

const tmpPrefix = ".state-"

// Save implements CheckpointStore via atomicfile's temp + rename
// discipline, so a reader never observes a torn checkpoint.
func (d *Dir) Save(id string, state []byte) error {
	return atomicfile.WriteFile(d.file(id), state, tmpPrefix)
}

// Load implements CheckpointStore.
func (d *Dir) Load(id string) ([]byte, error) {
	return os.ReadFile(d.file(id))
}

// Delete implements CheckpointStore.
func (d *Dir) Delete(id string) error {
	err := os.Remove(d.file(id))
	if err != nil && os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements CheckpointStore.
func (d *Dir) List() ([]string, error) {
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, stateSuffix) {
			continue
		}
		ids = append(ids, strings.TrimSuffix(name, stateSuffix))
	}
	return ids, nil
}
