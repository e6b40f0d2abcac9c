package main

import (
	"io/fs"
	"sync"
	"testing/fstest"
)

// memFS is an in-memory checkpoint.FS for the campaign workload's
// checkpoints and repro bundles. Paths are relative and slash-separated,
// as fstest.MapFS takes them. A pass writes a few hundred small files
// and the benchmark repeats passes several times a second; on a real
// disk that churn drove the process's kernel time per pass up by 10×
// within a minute and the slowdown carried over into the next runs, so
// the host's filesystem, not the program, decided the figures. The
// ladder still times checkpoint.Store and the checkpointed campaign on
// disk.
type memFS struct {
	mu    sync.Mutex
	files fstest.MapFS
}

func newMemFS() *memFS { return &memFS{files: fstest.MapFS{}} }

func (m *memFS) MkdirAll(path string, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if f, ok := m.files[path]; ok && !f.Mode.IsDir() {
		return &fs.PathError{Op: "mkdir", Path: path, Err: fs.ErrExist}
	}
	m.files[path] = &fstest.MapFile{Mode: fs.ModeDir | perm}
	return nil
}

func (m *memFS) WriteFile(path string, data []byte, perm fs.FileMode) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.files[path] = &fstest.MapFile{Data: append([]byte(nil), data...), Mode: perm}
	return nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	f, ok := m.files[oldpath]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldpath, Err: fs.ErrNotExist}
	}
	delete(m.files, oldpath)
	m.files[newpath] = f
	return nil
}

func (m *memFS) ReadFile(path string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.files.ReadFile(path)
}

func (m *memFS) ReadDir(path string) ([]fs.DirEntry, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.files.ReadDir(path)
}

func (m *memFS) Remove(path string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; !ok {
		return &fs.PathError{Op: "remove", Path: path, Err: fs.ErrNotExist}
	}
	delete(m.files, path)
	return nil
}
