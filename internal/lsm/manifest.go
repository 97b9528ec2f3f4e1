package lsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"treaty/internal/seal"
)

// numLevels is the depth of the LSM hierarchy.
const numLevels = 7

// The MANIFEST logs every change to the state of the persistent storage
// (§V-A): table additions/removals from compactions and flushes, WAL
// rotations and deletions, and sequence-number checkpoints. Entries are
// hash-chained and counter-bound like every Treaty log; recovery replays
// the MANIFEST first to rebuild the SSTable hierarchy and to learn the
// per-table index hashes used to verify table reads (§VI).

// versionEdit is one manifest record.
type versionEdit struct {
	addFiles    []fileMeta
	deleteFiles []struct {
		level  int
		number uint64
	}
	// logNumber, when non-zero, marks WALs below it obsolete.
	logNumber uint64
	// nextFile, when non-zero, persists the file-number allocator.
	nextFile uint64
	// lastSeq, when non-zero, checkpoints the sequence allocator.
	lastSeq uint64
	// deletedLogs names external logs (old WALs, Clogs) whose deletion
	// is being recorded (the paper: "Clog's deletions are also logged in
	// the MANIFEST").
	deletedLogs []string
}

// Edit record field tags.
const (
	tagAddFile = uint8(iota + 1)
	tagDeleteFile
	tagLogNumber
	tagNextFile
	tagLastSeq
	tagDeletedLog
)

// encode serializes the edit.
func (e *versionEdit) encode() []byte {
	var b []byte
	for _, f := range e.addFiles {
		b = append(b, tagAddFile)
		b = binary.AppendUvarint(b, uint64(f.level))
		b = binary.AppendUvarint(b, f.number)
		b = binary.AppendUvarint(b, f.size)
		b = binary.AppendUvarint(b, uint64(len(f.smallest)))
		b = append(b, f.smallest...)
		b = binary.AppendUvarint(b, uint64(len(f.largest)))
		b = append(b, f.largest...)
		b = append(b, f.footerHash[:]...)
	}
	for _, d := range e.deleteFiles {
		b = append(b, tagDeleteFile)
		b = binary.AppendUvarint(b, uint64(d.level))
		b = binary.AppendUvarint(b, d.number)
	}
	if e.logNumber != 0 {
		b = append(b, tagLogNumber)
		b = binary.AppendUvarint(b, e.logNumber)
	}
	if e.nextFile != 0 {
		b = append(b, tagNextFile)
		b = binary.AppendUvarint(b, e.nextFile)
	}
	if e.lastSeq != 0 {
		b = append(b, tagLastSeq)
		b = binary.AppendUvarint(b, e.lastSeq)
	}
	for _, name := range e.deletedLogs {
		b = append(b, tagDeletedLog)
		b = binary.AppendUvarint(b, uint64(len(name)))
		b = append(b, name...)
	}
	return b
}

// errBadEdit indicates a manifest record that cannot be decoded.
var errBadEdit = errors.New("lsm: corrupt manifest edit")

// decodeEdit parses a manifest record.
func decodeEdit(data []byte) (*versionEdit, error) {
	e := &versionEdit{}
	off := 0
	u := func() (uint64, error) {
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, errBadEdit
		}
		off += n
		return v, nil
	}
	bs := func() ([]byte, error) {
		n, err := u()
		if err != nil || off+int(n) > len(data) {
			return nil, errBadEdit
		}
		out := append([]byte(nil), data[off:off+int(n)]...)
		off += int(n)
		return out, nil
	}
	for off < len(data) {
		tag := data[off]
		off++
		switch tag {
		case tagAddFile:
			var f fileMeta
			lv, err := u()
			if err != nil {
				return nil, err
			}
			f.level = int(lv)
			if f.number, err = u(); err != nil {
				return nil, err
			}
			if f.size, err = u(); err != nil {
				return nil, err
			}
			if f.smallest, err = bs(); err != nil {
				return nil, err
			}
			if f.largest, err = bs(); err != nil {
				return nil, err
			}
			if off+seal.HashSize > len(data) {
				return nil, errBadEdit
			}
			copy(f.footerHash[:], data[off:])
			off += seal.HashSize
			e.addFiles = append(e.addFiles, f)
		case tagDeleteFile:
			lv, err := u()
			if err != nil {
				return nil, err
			}
			num, err := u()
			if err != nil {
				return nil, err
			}
			e.deleteFiles = append(e.deleteFiles, struct {
				level  int
				number uint64
			}{int(lv), num})
		case tagLogNumber:
			v, err := u()
			if err != nil {
				return nil, err
			}
			e.logNumber = v
		case tagNextFile:
			v, err := u()
			if err != nil {
				return nil, err
			}
			e.nextFile = v
		case tagLastSeq:
			v, err := u()
			if err != nil {
				return nil, err
			}
			e.lastSeq = v
		case tagDeletedLog:
			name, err := bs()
			if err != nil {
				return nil, err
			}
			e.deletedLogs = append(e.deletedLogs, string(name))
		default:
			return nil, fmt.Errorf("%w: tag %d", errBadEdit, tag)
		}
	}
	return e, nil
}

// version is an immutable snapshot of the table hierarchy.
type version struct {
	files [numLevels][]fileMeta
}

// clone deep-copies the level lists (metas are value types).
func (v *version) clone() *version {
	nv := &version{}
	for i := range v.files {
		nv.files[i] = append([]fileMeta(nil), v.files[i]...)
	}
	return nv
}

// apply folds an edit into the version.
func (v *version) apply(e *versionEdit) {
	for _, d := range e.deleteFiles {
		lst := v.files[d.level]
		for i := range lst {
			if lst[i].number == d.number {
				v.files[d.level] = append(lst[:i:i], lst[i+1:]...)
				break
			}
		}
	}
	for _, f := range e.addFiles {
		v.files[f.level] = append(v.files[f.level], f)
	}
	// Levels > 0 are kept sorted by smallest key and non-overlapping.
	for lv := 1; lv < numLevels; lv++ {
		sort.Slice(v.files[lv], func(i, j int) bool {
			return compareIKeys(v.files[lv][i].smallest, v.files[lv][j].smallest) < 0
		})
	}
}

// manifestName builds the manifest path.
func manifestName(dir string) string { return filepath.Join(dir, "MANIFEST-000001") }
