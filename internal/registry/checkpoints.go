package registry

import (
	"strings"

	"qgov/internal/sessionstore"
)

// checkpoints adapts a BlobStore to sessionstore.CheckpointStore:
// session state lives under session/<id> beside the registry's
// manifests and blobs, so one shared store carries both the fleet's
// published policies and its live session checkpoints. Replicas pointed
// at the same store pick up each other's sessions after a restart
// reshard exactly as they would through a shared directory, with no
// common filesystem.
type checkpoints struct {
	b BlobStore
}

// Checkpoints returns the registry-backed session checkpoint store over
// the given blob store.
func Checkpoints(b BlobStore) sessionstore.CheckpointStore {
	return checkpoints{b: b}
}

// Save implements sessionstore.CheckpointStore; atomicity is the blob
// store's Put contract.
func (c checkpoints) Save(id string, state []byte) error {
	return c.b.Put(sessionPrefix+id, state)
}

// Load implements sessionstore.CheckpointStore.
func (c checkpoints) Load(id string) ([]byte, error) {
	return c.b.Get(sessionPrefix + id)
}

// Delete implements sessionstore.CheckpointStore.
func (c checkpoints) Delete(id string) error {
	return c.b.Delete(sessionPrefix + id)
}

// List implements sessionstore.CheckpointStore.
func (c checkpoints) List() ([]string, error) {
	keys, err := c.b.List(sessionPrefix)
	if err != nil {
		return nil, err
	}
	ids := make([]string, 0, len(keys))
	for _, k := range keys {
		ids = append(ids, strings.TrimPrefix(k, sessionPrefix))
	}
	return ids, nil
}
