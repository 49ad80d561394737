package store

import (
	"os"
	"path/filepath"
	"testing"
)

// Backing is a file system and a root on it that a store is opened
// over, closed and opened again. The reopen tests run over a temporary
// directory on the OS file system and over a memFS that outlives the
// stores opened on it, so Open's reads, repairs and compaction run over
// a memFS that already holds files.
type Backing struct {
	Name string
	fsys logFS
	dir  string
}

// Backings returns a fresh temporary directory and a fresh memFS.
func Backings(t testing.TB) []Backing {
	return []Backing{{"os", osFS{}, t.TempDir()}, {"mem", newMemFS(), memRoot}}
}

// Open opens the store on b.
func (b Backing) Open(opt Options) (*FileStore, error) { return openFS(b.fsys, b.dir, opt) }

// Path is the path of name, relative to the store's root.
func (b Backing) Path(name string) string { return filepath.Join(b.dir, name) }

// Size returns the size of the file name, relative to the store's root.
func (b Backing) Size(t testing.TB, name string) int64 {
	t.Helper()
	f, err := b.fsys.OpenFile(b.Path(name), os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// AppendRaw appends p to the file name, relative to the store's root,
// the way a crash mid-append leaves a fragment.
func (b Backing) AppendRaw(t testing.TB, name string, p []byte) {
	t.Helper()
	f, err := b.fsys.OpenFile(b.Path(name), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
