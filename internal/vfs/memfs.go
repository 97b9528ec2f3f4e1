package vfs

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event describes one mutating filesystem operation; crash-point
// harnesses hook these to capture durable-state snapshots after every
// durable write site.
type Event struct {
	// Op is one of create, write, sync, truncate, rename, remove,
	// syncdir.
	Op string
	// Name is the affected path (the old name for rename).
	Name string
}

// memNode is one file's content. data is the volatile (page-cache)
// content; synced is the content guaranteed to survive a power cut
// (updated on each successful Sync). dirty is the lowest offset written
// since the last sync: data and synced agree below it, so a sync copies
// only data[dirty:] and costs what was written, not the file's length.
// Nodes are shared between the volatile and durable namespaces: content
// durability is per inode, namespace durability is per directory entry.
type memNode struct {
	data   []byte
	synced []byte
	dirty  int
}

// growLocked zero-extends data to at least size bytes.
func (nd *memNode) growLocked(size int64) {
	if old := len(nd.data); int(size) > old {
		nd.data = resize(nd.data, int(size))
		clear(nd.data[old:])
	}
}

// resize returns b with length n, at least doubling its capacity when it
// must reallocate: append grows large slices by a quarter, which would
// copy a growing log's bytes several times over.
func resize(b []byte, n int) []byte {
	if n > cap(b) {
		b = append(make([]byte, 0, max(n, 2*cap(b))), b...)
	}
	return b[:n]
}

// markDirty lowers the watermark to off.
func (nd *memNode) markDirty(off int) { nd.dirty = min(nd.dirty, off) }

// MemFS is an in-memory filesystem with a strict crash model:
//
//   - file content survives a power cut only up to the last File.Sync;
//   - namespace changes (create, rename, remove) survive only after a
//     SyncDir of the parent directory;
//   - everything else is lost.
//
// CloneCrash materializes the post-power-cut state as a fresh MemFS, so
// a crash-point harness can reboot a store from any instant of a
// workload without replaying it. MemFS is safe for concurrent use.
type MemFS struct {
	mu      sync.Mutex
	files   map[string]*memNode // volatile namespace
	durable map[string]*memNode // durable namespace (post-crash view)
	dirs    map[string]bool
	version uint64 // bumped whenever the durable view changes
	hook    func(Event)
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS {
	return &MemFS{
		files:   make(map[string]*memNode),
		durable: make(map[string]*memNode),
		dirs:    map[string]bool{".": true, "/": true},
	}
}

// SetHook installs a callback fired after every mutating operation (not
// inherited by clones). The hook runs outside the filesystem lock, so it
// may call CloneCrash.
func (m *MemFS) SetHook(h func(Event)) {
	m.mu.Lock()
	m.hook = h
	m.mu.Unlock()
}

// fire invokes the hook outside the lock.
func (m *MemFS) fire(op, name string) {
	m.mu.Lock()
	h := m.hook
	m.mu.Unlock()
	if h != nil {
		h(Event{Op: op, Name: name})
	}
}

// UnsyncedBytes sums the unsynced content tails of durable files.
func (m *MemFS) UnsyncedBytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, nd := range m.durable {
		if len(nd.data) > len(nd.synced) {
			n += int64(len(nd.data) - len(nd.synced))
		}
	}
	return n
}

// CloneCrash returns the filesystem as it would exist after a power cut
// right now: the durable namespace, with each file holding its synced
// content plus the leading tailFrac fraction of its unsynced tail (a
// torn write: bytes that reached the platter before power failed).
// tailFrac 0 is the strict post-crash image. The clone has no hook.
func (m *MemFS) CloneCrash(tailFrac float64) *MemFS {
	c, _ := m.CloneCrashVersioned(tailFrac)
	return c
}

// CloneCrashVersioned is CloneCrash plus the durable version the image
// was taken at, read atomically with the clone so concurrent snapshots
// can be ordered by durable-state time.
func (m *MemFS) CloneCrashVersioned(tailFrac float64) (*MemFS, uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := NewMemFS()
	for d := range m.dirs {
		out.dirs[d] = true
	}
	for name, nd := range m.durable {
		content := append([]byte(nil), nd.synced...)
		if tailFrac > 0 && len(nd.data) > len(nd.synced) {
			tail := nd.data[len(nd.synced):]
			keep := int(tailFrac * float64(len(tail)))
			if keep > len(tail) {
				keep = len(tail)
			}
			content = append(content, tail[:keep]...)
		}
		n := &memNode{data: content, synced: append([]byte(nil), content...), dirty: len(content)}
		out.files[name] = n
		out.durable[name] = n
	}
	return out, m.version
}

// pathError builds a not-exist error that satisfies os.IsNotExist.
func pathError(op, name string) error {
	return &os.PathError{Op: op, Path: name, Err: os.ErrNotExist}
}

// checkParent verifies the parent directory exists (locked).
func (m *MemFS) checkParentLocked(name string) error {
	dir := filepath.Dir(name)
	if !m.dirs[dir] {
		return &os.PathError{Op: "open", Path: name, Err: fmt.Errorf("parent %s: %w", dir, os.ErrNotExist)}
	}
	return nil
}

// Create implements FS.
func (m *MemFS) Create(name string) (File, error) {
	return m.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
}

// Open implements FS.
func (m *MemFS) Open(name string) (File, error) {
	return m.OpenFile(name, os.O_RDONLY, 0)
}

// OpenFile implements FS.
func (m *MemFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	nd, ok := m.files[name]
	created := false
	if !ok {
		if flag&os.O_CREATE == 0 {
			m.mu.Unlock()
			return nil, pathError("open", name)
		}
		if err := m.checkParentLocked(name); err != nil {
			m.mu.Unlock()
			return nil, err
		}
		nd = &memNode{}
		m.files[name] = nd
		created = true
	} else if flag&os.O_CREATE != 0 && flag&os.O_EXCL != 0 {
		m.mu.Unlock()
		return nil, &os.PathError{Op: "open", Path: name, Err: os.ErrExist}
	}
	if flag&os.O_TRUNC != 0 {
		// The truncation itself is volatile: a crash before the next
		// sync may resurrect the old content.
		nd.data = nil
		nd.markDirty(0)
	}
	h := &memHandle{
		fs:       m,
		node:     nd,
		name:     name,
		appendTo: flag&os.O_APPEND != 0,
		writable: flag&(os.O_WRONLY|os.O_RDWR) != 0,
		readable: flag&os.O_WRONLY == 0,
	}
	m.mu.Unlock()
	if created {
		m.fire("create", name)
	}
	return h, nil
}

// ReadFile implements FS.
func (m *MemFS) ReadFile(name string) ([]byte, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	nd, ok := m.files[name]
	if !ok {
		m.mu.Unlock()
		return nil, pathError("read", name)
	}
	out := append([]byte(nil), nd.data...)
	m.mu.Unlock()
	return out, nil
}

// Stat implements FS.
func (m *MemFS) Stat(name string) (os.FileInfo, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if nd, ok := m.files[name]; ok {
		return memInfo{name: filepath.Base(name), size: int64(len(nd.data))}, nil
	}
	if m.dirs[name] {
		return memInfo{name: filepath.Base(name), dir: true}, nil
	}
	return nil, pathError("stat", name)
}

// Rename implements FS. The rename is visible immediately but durable
// only after SyncDir.
func (m *MemFS) Rename(oldname, newname string) error {
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	m.mu.Lock()
	nd, ok := m.files[oldname]
	if !ok {
		m.mu.Unlock()
		return pathError("rename", oldname)
	}
	if err := m.checkParentLocked(newname); err != nil {
		m.mu.Unlock()
		return err
	}
	delete(m.files, oldname)
	m.files[newname] = nd
	m.mu.Unlock()
	m.fire("rename", oldname)
	return nil
}

// Remove implements FS.
func (m *MemFS) Remove(name string) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	if _, ok := m.files[name]; !ok {
		m.mu.Unlock()
		return pathError("remove", name)
	}
	delete(m.files, name)
	m.mu.Unlock()
	m.fire("remove", name)
	return nil
}

// Truncate implements FS. Shrinking is applied to the durable view too:
// the caller is discarding a tail it knows to be unstabilized, and the
// next sync would persist the shrink anyway.
func (m *MemFS) Truncate(name string, size int64) error {
	name = filepath.Clean(name)
	m.mu.Lock()
	nd, ok := m.files[name]
	if !ok {
		m.mu.Unlock()
		return pathError("truncate", name)
	}
	nd.truncateLocked(size)
	m.version++
	m.mu.Unlock()
	m.fire("truncate", name)
	return nil
}

// truncateLocked resizes a node, shrinking the synced view when needed.
func (nd *memNode) truncateLocked(size int64) {
	nd.growLocked(size)
	nd.data = nd.data[:size]
	nd.markDirty(int(size))
	if int64(len(nd.synced)) > size {
		nd.synced = nd.synced[:size]
	}
}

// MkdirAll implements FS. Directory creation is treated as immediately
// durable (nodes create their directory trees once at boot).
func (m *MemFS) MkdirAll(path string, perm os.FileMode) error {
	path = filepath.Clean(path)
	m.mu.Lock()
	for p := path; ; p = filepath.Dir(p) {
		m.dirs[p] = true
		if p == filepath.Dir(p) {
			break
		}
	}
	m.mu.Unlock()
	return nil
}

// ReadDir implements FS.
func (m *MemFS) ReadDir(name string) ([]os.DirEntry, error) {
	name = filepath.Clean(name)
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirs[name] {
		return nil, pathError("readdir", name)
	}
	seen := make(map[string]os.DirEntry)
	for p, nd := range m.files {
		if filepath.Dir(p) == name {
			base := filepath.Base(p)
			seen[base] = memDirEntry{memInfo{name: base, size: int64(len(nd.data))}}
		}
	}
	prefix := name + string(filepath.Separator)
	if name == "." {
		prefix = ""
	}
	for d := range m.dirs {
		if d != name && filepath.Dir(d) == name && strings.HasPrefix(d, prefix) {
			base := filepath.Base(d)
			seen[base] = memDirEntry{memInfo{name: base, dir: true}}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]os.DirEntry, 0, len(names))
	for _, n := range names {
		out = append(out, seen[n])
	}
	return out, nil
}

// SyncDir implements FS: the directory's current namespace becomes the
// durable namespace.
func (m *MemFS) SyncDir(dir string) error {
	dir = filepath.Clean(dir)
	m.mu.Lock()
	for name, nd := range m.files {
		if filepath.Dir(name) == dir {
			m.durable[name] = nd
		}
	}
	for name := range m.durable {
		if filepath.Dir(name) == dir {
			if _, ok := m.files[name]; !ok {
				delete(m.durable, name)
			}
		}
	}
	m.version++
	m.mu.Unlock()
	m.fire("syncdir", dir)
	return nil
}

// memHandle is an open MemFS file.
type memHandle struct {
	fs       *MemFS
	node     *memNode
	name     string
	pos      int64
	appendTo bool
	writable bool
	readable bool
}

// Name implements File.
func (h *memHandle) Name() string { return h.name }

// Write implements File.
func (h *memHandle) Write(p []byte) (int, error) {
	if !h.writable {
		return 0, &os.PathError{Op: "write", Path: h.name, Err: os.ErrPermission}
	}
	h.fs.mu.Lock()
	nd := h.node
	if h.appendTo {
		h.pos = int64(len(nd.data))
	}
	end := h.pos + int64(len(p))
	nd.growLocked(end)
	copy(nd.data[h.pos:end], p)
	nd.markDirty(int(h.pos))
	h.pos = end
	h.fs.mu.Unlock()
	h.fs.fire("write", h.name)
	return len(p), nil
}

// Read implements File.
func (h *memHandle) Read(p []byte) (int, error) {
	if !h.readable {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: os.ErrPermission}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if h.pos >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[h.pos:])
	h.pos += int64(n)
	return n, nil
}

// ReadAt implements File.
func (h *memHandle) ReadAt(p []byte, off int64) (int, error) {
	if !h.readable {
		return 0, &os.PathError{Op: "read", Path: h.name, Err: os.ErrPermission}
	}
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	if off >= int64(len(h.node.data)) {
		return 0, io.EOF
	}
	n := copy(p, h.node.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// Sync implements File: the volatile content becomes durable.
func (h *memHandle) Sync() error {
	h.fs.mu.Lock()
	nd := h.node
	nd.synced = resize(nd.synced, len(nd.data))
	copy(nd.synced[nd.dirty:], nd.data[nd.dirty:])
	nd.dirty = len(nd.data)
	h.fs.version++
	h.fs.mu.Unlock()
	h.fs.fire("sync", h.name)
	return nil
}

// Truncate implements File.
func (h *memHandle) Truncate(size int64) error {
	h.fs.mu.Lock()
	h.node.truncateLocked(size)
	if h.pos > size {
		h.pos = size
	}
	h.fs.version++
	h.fs.mu.Unlock()
	h.fs.fire("truncate", h.name)
	return nil
}

// Close implements File (closing does not sync).
func (h *memHandle) Close() error { return nil }

// Stat implements File.
func (h *memHandle) Stat() (os.FileInfo, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	return memInfo{name: filepath.Base(h.name), size: int64(len(h.node.data))}, nil
}

// memInfo is MemFS file metadata.
type memInfo struct {
	name string
	size int64
	dir  bool
}

// Name implements os.FileInfo.
func (i memInfo) Name() string { return i.name }

// Size implements os.FileInfo.
func (i memInfo) Size() int64 { return i.size }

// Mode implements os.FileInfo.
func (i memInfo) Mode() os.FileMode {
	if i.dir {
		return os.ModeDir | 0o755
	}
	return 0o644
}

// ModTime implements os.FileInfo.
func (i memInfo) ModTime() time.Time { return time.Time{} }

// IsDir implements os.FileInfo.
func (i memInfo) IsDir() bool { return i.dir }

// Sys implements os.FileInfo.
func (i memInfo) Sys() any { return nil }

// memDirEntry adapts memInfo to os.DirEntry.
type memDirEntry struct{ info memInfo }

// Name implements os.DirEntry.
func (e memDirEntry) Name() string { return e.info.name }

// IsDir implements os.DirEntry.
func (e memDirEntry) IsDir() bool { return e.info.dir }

// Type implements os.DirEntry.
func (e memDirEntry) Type() os.FileMode { return e.info.Mode().Type() }

// Info implements os.DirEntry.
func (e memDirEntry) Info() (os.FileInfo, error) { return e.info, nil }
