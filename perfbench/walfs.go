package main

import (
	"slices"

	"repro/internal/wal"
)

// splitFS is the state directory of the served engine: WAL segments
// live on an in-memory file system (wal.Injector, with no fault armed)
// and every other file — checkpoints and their temporary files — in a
// directory of the checkout. The write and recovery metrics then time
// the program's write path (HTTP, engine, WAL encoding, the Append and
// Sync calls), not the host's shared disk: with the segments on disk,
// fsync stalls from outside the process made the write tails of whole
// runs read 2–4× the others. Checkpoints stay on disk because at d=4096
// one is several hundred MB, which memory would have to hold twice
// while the engine is reopened.
type splitFS struct {
	mem  *wal.Injector
	disk wal.FS
}

func newSplitFS(dir string) splitFS {
	return splitFS{mem: wal.NewInjector(), disk: wal.DirFS(dir)}
}

func (f splitFS) pick(name string) wal.FS {
	if _, ok := wal.ParseSegmentName(name); ok {
		return f.mem
	}
	return f.disk
}

func (f splitFS) Create(name string) (wal.File, error) { return f.pick(name).Create(name) }
func (f splitFS) Open(name string) (wal.File, error)   { return f.pick(name).Open(name) }
func (f splitFS) Remove(name string) error             { return f.pick(name).Remove(name) }

func (f splitFS) Truncate(name string, size int64) error {
	return f.pick(name).Truncate(name, size)
}

// Rename never moves a file between the two halves: the WAL renames
// only a checkpoint's temporary file onto the checkpoint.
func (f splitFS) Rename(oldname, newname string) error {
	return f.pick(newname).Rename(oldname, newname)
}

func (f splitFS) ReadDir() ([]string, error) {
	m, err := f.mem.ReadDir()
	if err != nil {
		return nil, err
	}
	d, err := f.disk.ReadDir()
	if err != nil {
		return nil, err
	}
	names := append(m, d...)
	slices.Sort(names)
	return names, nil
}

func (f splitFS) SyncDir() error {
	if err := f.mem.SyncDir(); err != nil {
		return err
	}
	return f.disk.SyncDir()
}
