// Package atomicfile is the one copy of the write-to-temp + rename
// discipline the durable stores share (sessionstore.Dir's checkpoint
// files, registry.Dir's blobs): a reader never observes a torn write,
// and a crashed writer's leavings are swept only once old enough that
// no live sibling on shared storage can still own them.
package atomicfile

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// SweepAge is how old a temp file must be before a sweep treats it as a
// crashed writer's leavings. A live writer's temp file exists for
// milliseconds between CreateTemp and Rename; on storage shared by a
// replica fleet, a starting member must not sweep a sibling's in-flight
// write out from under it.
const SweepAge = time.Hour

// WriteFile atomically replaces path with data: the bytes land in a
// temp file (tmpPrefix-named, in path's own directory — rename is only
// atomic within one filesystem directory) and the rename publishes them.
// The temp file is removed only when the write, close or rename fails:
// after a successful rename its name is gone, and removing it again
// would cost an unlink per write or, should a concurrent writer have
// drawn the same name since, delete that writer's temp file.
func WriteFile(path string, data []byte, tmpPrefix string) (err error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), tmpPrefix+"*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// SweepTemps removes tmpPrefix-named files under root older than
// SweepAge — torn state by definition. Fresh temp files are left alone;
// walk errors are ignored (the sweep is best-effort hygiene).
func SweepTemps(root, tmpPrefix string) {
	cutoff := time.Now().Add(-SweepAge)
	_ = filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() || !strings.HasPrefix(e.Name(), tmpPrefix) {
			return nil
		}
		if info, err := e.Info(); err == nil && info.ModTime().Before(cutoff) {
			_ = os.Remove(path)
		}
		return nil
	})
}
