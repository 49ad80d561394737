package store

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// memRoot is the directory NewMem roots its store at.
const memRoot = "/"

// memFS is an in-memory logFS, the file system under NewMem's store:
// nothing on it outlives the process. As on a POSIX file system, a file
// is created only in a directory that exists, and a handle keeps its
// file when Remove or Rename moves the name. Sync and SyncDir make
// nothing durable. Writes always append and Truncate only shortens:
// the store writes only files it opened O_APPEND or O_TRUNC, and cuts
// them back only to records it wrote. One mutex guards it all.
type memFS struct {
	mu    sync.Mutex
	dirs  map[string]bool
	files map[string]*memData
}

// memData is one file's bytes, shared by every handle open on it.
type memData struct{ b []byte }

func newMemFS() *memFS {
	return &memFS{dirs: map[string]bool{memRoot: true}, files: make(map[string]*memData)}
}

func memErr(op, name string, err error) error { return &fs.PathError{Op: op, Path: name, Err: err} }

func (m *memFS) OpenFile(name string, flag int, _ fs.FileMode) (logFile, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[name]
	switch {
	case !m.dirs[filepath.Dir(name)], d == nil && flag&os.O_CREATE == 0:
		return nil, memErr("open", name, fs.ErrNotExist)
	case d != nil && flag&(os.O_CREATE|os.O_EXCL) == os.O_CREATE|os.O_EXCL:
		return nil, memErr("open", name, fs.ErrExist)
	case d == nil:
		d = &memData{}
		m.files[name] = d
	case flag&os.O_TRUNC != 0:
		d.b = nil
	}
	return &memFile{fs: m, name: name, d: d}, nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.files[name] == nil {
		return memErr("remove", name, fs.ErrNotExist)
	}
	delete(m.files, name)
	return nil
}

func (m *memFS) Rename(oldname, newname string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := m.files[oldname]
	if d == nil || !m.dirs[filepath.Dir(newname)] {
		return memErr("rename", oldname, fs.ErrNotExist)
	}
	delete(m.files, oldname)
	m.files[newname] = d
	return nil
}

func (m *memFS) MkdirAll(dir string, _ fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for d := filepath.Clean(dir); !m.dirs[d]; d = filepath.Dir(d) {
		m.dirs[d] = true
	}
	return nil
}

// ReadDir lists the files in dir: the store lists only directories
// that hold no directory.
func (m *memFS) ReadDir(dir string) ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return nil, memErr("open", dir, fs.ErrNotExist)
	}
	var names []string
	for name := range m.files {
		if filepath.Dir(name) == dir {
			names = append(names, filepath.Base(name))
		}
	}
	sort.Strings(names)
	return names, nil
}

func (m *memFS) SyncDir(dir string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[dir] {
		return memErr("open", dir, fs.ErrNotExist)
	}
	return nil
}

// memFile is a handle open on a memFS file.
type memFile struct {
	fs     *memFS
	name   string
	d      *memData
	closed bool
}

// lock locks the file system for op on the handle, which must be open.
func (f *memFile) lock(op string) error {
	f.fs.mu.Lock()
	if f.closed {
		f.fs.mu.Unlock()
		return memErr(op, f.name, fs.ErrClosed)
	}
	return nil
}

func (f *memFile) Write(p []byte) (int, error) {
	if err := f.lock("write"); err != nil {
		return 0, err
	}
	defer f.fs.mu.Unlock()
	f.d.b = append(f.d.b, p...)
	return len(p), nil
}

func (f *memFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.lock("read"); err != nil {
		return 0, err
	}
	defer f.fs.mu.Unlock()
	n := 0
	if off < int64(len(f.d.b)) {
		n = copy(p, f.d.b[off:])
	}
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

func (f *memFile) Stat() (fs.FileInfo, error) {
	if err := f.lock("stat"); err != nil {
		return nil, err
	}
	defer f.fs.mu.Unlock()
	return memInfo{name: filepath.Base(f.name), size: int64(len(f.d.b))}, nil
}

func (f *memFile) Sync() error {
	if err := f.lock("sync"); err != nil {
		return err
	}
	f.fs.mu.Unlock()
	return nil
}

func (f *memFile) Truncate(size int64) error {
	if err := f.lock("truncate"); err != nil {
		return err
	}
	defer f.fs.mu.Unlock()
	if size < 0 || size > int64(len(f.d.b)) {
		return memErr("truncate", f.name, fs.ErrInvalid)
	}
	f.d.b = f.d.b[:size]
	return nil
}

func (f *memFile) Close() error {
	if err := f.lock("close"); err != nil {
		return err
	}
	defer f.fs.mu.Unlock()
	f.closed = true
	return nil
}

// memInfo describes a memFS file.
type memInfo struct {
	name string
	size int64
}

func (i memInfo) Name() string     { return i.name }
func (i memInfo) Size() int64      { return i.size }
func (memInfo) Mode() fs.FileMode  { return 0o644 }
func (memInfo) ModTime() time.Time { return time.Time{} }
func (memInfo) IsDir() bool        { return false }
func (memInfo) Sys() any           { return nil }
