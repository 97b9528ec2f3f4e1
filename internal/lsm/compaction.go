package lsm

import (
	"bytes"
)

// Compaction policy: leveled, RocksDB-style (§II-A). L0 files may overlap
// (each is one flushed memtable); when their count reaches L0Trigger they
// are merged with every overlapping L1 file into fresh L1 tables. Levels
// ≥ 1 are sorted and non-overlapping; when level n exceeds its size limit
// (BaseLevelBytes × 10^(n-1)) one file is merged into level n+1. If that
// pushes n+1 over its own limit, the next background pass cascades
// further.

// compaction describes one unit of compaction work.
type compaction struct {
	level   int // source level
	inputs  []fileMeta
	overlap []fileMeta // files in level+1 overlapping the inputs
}

// maxBytesForLevel returns the size limit of a level (level >= 1).
func (db *DB) maxBytesForLevel(level int) int64 {
	size := db.opt.BaseLevelBytes
	for l := 1; l < level; l++ {
		size *= 10
	}
	return size
}

// pickCompactionLocked selects compaction work, or nil if none is needed.
// Called with db.mu held.
func (db *DB) pickCompactionLocked() *compaction {
	v := db.current
	// L0 by file count.
	if len(v.files[0]) >= db.opt.L0Trigger {
		c := &compaction{level: 0, inputs: append([]fileMeta(nil), v.files[0]...)}
		smallest, largest := keyRange(c.inputs)
		c.overlap = overlapping(v.files[1], smallest, largest)
		return c
	}
	// Deeper levels by size.
	for lv := 1; lv < numLevels-1; lv++ {
		var total int64
		for _, f := range v.files[lv] {
			total += int64(f.size)
		}
		if total <= db.maxBytesForLevel(lv) {
			continue
		}
		// Compact the first file (round-robin would be nicer; first is
		// deterministic and sufficient here).
		c := &compaction{level: lv, inputs: []fileMeta{v.files[lv][0]}}
		smallest, largest := keyRange(c.inputs)
		c.overlap = overlapping(v.files[lv+1], smallest, largest)
		return c
	}
	return nil
}

// keyRange returns the smallest and largest internal keys across files.
func keyRange(files []fileMeta) (smallest, largest []byte) {
	for _, f := range files {
		if smallest == nil || compareIKeys(f.smallest, smallest) < 0 {
			smallest = f.smallest
		}
		if largest == nil || compareIKeys(f.largest, largest) > 0 {
			largest = f.largest
		}
	}
	return
}

// overlapping returns the files in a sorted, non-overlapping level whose
// ranges intersect [smallest, largest] (by user key).
func overlapping(files []fileMeta, smallest, largest []byte) []fileMeta {
	if smallest == nil {
		return nil
	}
	var out []fileMeta
	us, ul := userKeyOf(smallest), userKeyOf(largest)
	for _, f := range files {
		if bytes.Compare(userKeyOf(f.largest), us) < 0 || bytes.Compare(userKeyOf(f.smallest), ul) > 0 {
			continue
		}
		out = append(out, f)
	}
	return out
}

// targetFileSize is the output table size for compactions.
const targetFileSize = 4 << 20

// runCompaction merges the inputs and overlap into new tables at
// level+1, drops shadowed versions and bottom-level tombstones, logs the
// manifest edit, and schedules the inputs for (stabilization-gated)
// deletion.
func (db *DB) runCompaction(c *compaction) error {
	outLevel := c.level + 1

	// Build the merge source.
	var iters []internalIterator
	all := append(append([]fileMeta(nil), c.inputs...), c.overlap...)
	for _, f := range all {
		r, err := db.reader(f)
		if err != nil {
			return err
		}
		iters = append(iters, r.newIterator())
	}
	merged := newMergeIterator(iters)
	merged.SeekToFirst()

	// isBottom: no data below the output level — tombstones can drop.
	db.mu.Lock()
	isBottom := true
	for lv := outLevel + 1; lv < numLevels; lv++ {
		if len(db.current.files[lv]) > 0 {
			isBottom = false
			break
		}
	}
	db.mu.Unlock()

	var edit versionEdit
	var w *sstWriter
	var lastUser []byte
	finishOutput := func() error {
		if w == nil || w.empty() {
			if w != nil {
				w.abort()
				w = nil
			}
			return nil
		}
		meta, err := w.finish()
		if err != nil {
			return err
		}
		meta.level = outLevel
		edit.addFiles = append(edit.addFiles, meta)
		w = nil
		return nil
	}

	for ; merged.Valid(); merged.Next() {
		ikey := merged.Key()
		uk, _, kind := parseIKey(ikey)
		// Keep only the newest version of each user key. (Snapshot
		// reads against historical sequences are served by the
		// memtables; compaction output retains the latest committed
		// state, matching the engine's use by the transaction layer.)
		if lastUser != nil && bytes.Equal(uk, lastUser) {
			continue
		}
		lastUser = append(lastUser[:0], uk...)
		if kind == KindDelete && isBottom {
			continue // tombstone with nothing underneath: drop
		}
		if w == nil {
			db.mu.Lock()
			num := db.allocFileLocked()
			db.mu.Unlock()
			var err error
			w, err = newSSTWriter(db.fs, db.opt.Dir, num, db.opt.Level, db.opt.Key, db.rt)
			if err != nil {
				return err
			}
		}
		v, err := merged.Value()
		if err != nil {
			if w != nil {
				w.abort()
			}
			return err
		}
		if err := w.add(ikey, v); err != nil {
			w.abort()
			return err
		}
		if w.offset >= targetFileSize {
			if err := finishOutput(); err != nil {
				return err
			}
		}
	}
	if err := finishOutput(); err != nil {
		return err
	}

	for _, f := range c.inputs {
		edit.deleteFiles = append(edit.deleteFiles, struct {
			level  int
			number uint64
		}{c.level, f.number})
	}
	for _, f := range c.overlap {
		edit.deleteFiles = append(edit.deleteFiles, struct {
			level  int
			number uint64
		}{outLevel, f.number})
	}

	db.mu.Lock()
	edit.nextFile = db.nextFile
	ctr, err := db.logEditLocked(&edit)
	if err != nil {
		db.mu.Unlock()
		return err
	}
	nv := db.current.clone()
	nv.apply(&edit)
	db.current = nv
	for _, f := range all {
		// Drop the reader from the cache but do not close it: a
		// concurrent Get that captured the previous version may still be
		// reading. The descriptor is reclaimed by the runtime finalizer.
		delete(db.readers, f.number)
		db.obsolete = append(db.obsolete, obsoleteFile{
			path:        sstFileName(db.opt.Dir, f.number),
			manifestCtr: ctr,
		})
	}
	db.compactions.Add(1)
	db.mu.Unlock()
	// Invalidate the replaced tables' cached blocks now that the new
	// version is installed. A concurrent Get holding the previous
	// version may re-fill a block of a deleted table after this purge;
	// that is bounded waste, not staleness — file numbers are never
	// reused, so the entry can only hold that table's true contents,
	// and CLOCK evicts it once the old version's readers drain.
	if db.bcache != nil {
		for _, f := range all {
			db.bcache.InvalidateTable(f.number)
		}
	}
	return nil
}
