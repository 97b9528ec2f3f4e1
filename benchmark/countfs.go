package main

import (
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"treaty/internal/vfs"
)

// fileClass buckets the files a Treaty node writes, by name.
type fileClass int

const (
	classWAL fileClass = iota
	classClog
	classSST
	classManifest
	classCounter
	classOther
	numClasses
)

var classNames = [numClasses]string{"wal", "clog", "sst", "manifest", "counter", "other"}

// classify maps a path to its class. Names are the ones lsm, twopc and
// core choose: wal-NNNNNN.log, CLOG-000001, sst-NNNNNN.sst,
// MANIFEST-000001 and <dir>/counters/<name>[.tmp].
func classify(name string) fileClass {
	base := filepath.Base(name)
	switch {
	case filepath.Base(filepath.Dir(name)) == "counters":
		return classCounter
	case strings.HasPrefix(base, "wal-"):
		return classWAL
	case strings.HasPrefix(base, "CLOG-"):
		return classClog
	case strings.HasPrefix(base, "sst-"):
		return classSST
	case strings.HasPrefix(base, "MANIFEST"):
		return classManifest
	}
	return classOther
}

// ioCounts is one class's device traffic.
type ioCounts struct {
	writeBytes, readBytes, syncs atomic.Uint64
}

// ioSample is a point-in-time copy of the counters, per class.
type ioSample [numClasses]struct{ writeBytes, readBytes, syncs uint64 }

// sub returns s - o, class by class.
func (s ioSample) sub(o ioSample) ioSample {
	for c := range s {
		s[c].writeBytes -= o[c].writeBytes
		s[c].readBytes -= o[c].readBytes
		s[c].syncs -= o[c].syncs
	}
	return s
}

// total sums the classes.
func (s ioSample) total() (writeBytes, readBytes, syncs uint64) {
	for c := range s {
		writeBytes += s[c].writeBytes
		readBytes += s[c].readBytes
		syncs += s[c].syncs
	}
	return
}

// countFS decorates a vfs.FS with per-class counters: bytes written,
// bytes read (Read, ReadAt and ReadFile) and force calls (File.Sync and
// SyncDir). It is installed in untraced and traced windows alike, so
// both execute the same code. Several nodes may share one counter set.
type countFS struct {
	vfs.FS
	counts *[numClasses]ioCounts
}

func newCountFS(inner vfs.FS, counts *[numClasses]ioCounts) *countFS {
	return &countFS{FS: inner, counts: counts}
}

// sample copies the shared counters.
func sampleIO(counts *[numClasses]ioCounts) ioSample {
	var s ioSample
	for c := range counts {
		s[c].writeBytes = counts[c].writeBytes.Load()
		s[c].readBytes = counts[c].readBytes.Load()
		s[c].syncs = counts[c].syncs.Load()
	}
	return s
}

func (c *countFS) wrap(f vfs.File, err error, name string) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &countFile{File: f, c: &c.counts[classify(name)]}, nil
}

func (c *countFS) Create(name string) (vfs.File, error) {
	f, err := c.FS.Create(name)
	return c.wrap(f, err, name)
}

func (c *countFS) Open(name string) (vfs.File, error) {
	f, err := c.FS.Open(name)
	return c.wrap(f, err, name)
}

func (c *countFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	f, err := c.FS.OpenFile(name, flag, perm)
	return c.wrap(f, err, name)
}

func (c *countFS) ReadFile(name string) ([]byte, error) {
	b, err := c.FS.ReadFile(name)
	c.counts[classify(name)].readBytes.Add(uint64(len(b)))
	return b, err
}

func (c *countFS) SyncDir(dir string) error {
	// A directory force belongs to the files it makes durable; the only
	// per-commit one is the counter file's rename.
	cl := classOther
	if filepath.Base(dir) == "counters" {
		cl = classCounter
	}
	c.counts[cl].syncs.Add(1)
	return c.FS.SyncDir(dir)
}

// countFile counts one handle's traffic into its class.
type countFile struct {
	vfs.File
	c *ioCounts
}

func (f *countFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writeBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) Read(p []byte) (int, error) {
	n, err := f.File.Read(p)
	f.c.readBytes.Add(uint64(n))
	return n, err
}

func (f *countFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.readBytes.Add(uint64(n))
	return n, err
}

// Sync counts the force and does not forward it. MemFS.Sync copies the
// whole file to model a power cut, so its cost grows with the length of
// an append-only log: with it, dist-native's p50 climbed from 0.74 ms to
// 1.34 ms inside one 20 s window as the Clog grew. Nothing here reads the
// durable image, and device time is meant to be zero.
func (f *countFile) Sync() error {
	f.c.syncs.Add(1)
	return nil
}
