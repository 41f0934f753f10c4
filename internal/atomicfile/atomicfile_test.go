package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.state")
	for _, data := range []string{"first", "second"} {
		if err := WriteFile(path, []byte(data), ".tmp-"); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != data {
			t.Fatalf("ReadFile = %q, %v; want %q", got, err, data)
		}
	}
	assertOnly(t, dir, "x.state")
}

// A failed rename (the target is a directory) must return the error and
// remove the temp file it wrote.
func TestWriteFileFailedRenameRemovesTemp(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "target")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(target, []byte("state"), ".tmp-"); err == nil {
		t.Fatal("WriteFile onto a directory succeeded")
	}
	assertOnly(t, dir, "target")
}

// assertOnly fails unless dir holds exactly the named entry.
func assertOnly(t *testing.T, dir, name string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != name {
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("directory holds %v, want only %s", names, name)
	}
}
