package lsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestIKeyRoundTrip(t *testing.T) {
	f := func(key []byte, seq uint64) bool {
		seq %= MaxSeq
		for _, kind := range []RecordKind{KindSet, KindDelete} {
			ik := makeIKey(key, seq, kind)
			uk, s, k := parseIKey(ik)
			if !bytes.Equal(uk, key) || s != seq || k != kind {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIKeyOrdering(t *testing.T) {
	// Same user key: newer sequence sorts first.
	a := makeIKey([]byte("k"), 10, KindSet)
	b := makeIKey([]byte("k"), 5, KindSet)
	if compareIKeys(a, b) >= 0 {
		t.Error("newer version must sort before older")
	}
	// Different user keys: lexicographic.
	c := makeIKey([]byte("a"), 1, KindSet)
	d := makeIKey([]byte("b"), 100, KindSet)
	if compareIKeys(c, d) >= 0 {
		t.Error("user key order must dominate")
	}
	// Prefix keys: shorter first.
	e := makeIKey([]byte("ab"), 1, KindSet)
	f := makeIKey([]byte("abc"), 1, KindSet)
	if compareIKeys(e, f) >= 0 {
		t.Error("prefix must sort before extension")
	}
}

func TestSkipListInsertAndSeek(t *testing.T) {
	sl := newSkipList()
	keys := []string{"delta", "alpha", "echo", "bravo", "charlie"}
	for i, k := range keys {
		sl.insert(makeIKey([]byte(k), uint64(i+1), KindSet), valueHandle{off: i})
	}
	// In-order traversal must be sorted.
	it := sl.iterator()
	var got []string
	for it.SeekToFirst(); it.Valid(); it.Next() {
		uk, _, _ := parseIKey(it.Key())
		got = append(got, string(uk))
	}
	want := append([]string(nil), keys...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("traversal = %v, want %v", got, want)
	}
	// Seek lands on the right key.
	node := sl.seek(makeIKey([]byte("bravo"), MaxSeq, RecordKind(0xFF)))
	if node == nil {
		t.Fatal("seek returned nil")
	}
	uk, _, _ := parseIKey(node.key)
	if string(uk) != "bravo" {
		t.Errorf("seek landed on %q", uk)
	}
}

func TestSkipListVersionOrdering(t *testing.T) {
	sl := newSkipList()
	for seq := uint64(1); seq <= 5; seq++ {
		sl.insert(makeIKey([]byte("key"), seq, KindSet), valueHandle{off: int(seq)})
	}
	// Seeking at read-seq 3 must find version 3 first.
	node := sl.seek(makeIKey([]byte("key"), 3, RecordKind(0xFF)))
	if node == nil {
		t.Fatal("seek returned nil")
	}
	_, seq, _ := parseIKey(node.key)
	if seq != 3 {
		t.Errorf("visible version = %d, want 3", seq)
	}
	// Seeking at MaxSeq finds the newest.
	node = sl.seek(makeIKey([]byte("key"), MaxSeq, RecordKind(0xFF)))
	_, seq, _ = parseIKey(node.key)
	if seq != 5 {
		t.Errorf("newest version = %d, want 5", seq)
	}
}

func TestSkipListConcurrentInserts(t *testing.T) {
	sl := newSkipList()
	const writers, perWriter = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("key-%04d", rng.Intn(10000))
				seq := uint64(w*perWriter + i + 1)
				sl.insert(makeIKey([]byte(key), seq, KindSet), valueHandle{})
			}
		}(w)
	}
	wg.Wait()
	if got := sl.entries(); got != writers*perWriter {
		t.Fatalf("entries = %d, want %d", got, writers*perWriter)
	}
	// Full traversal must be sorted and complete.
	it := sl.iterator()
	count := 0
	var prev []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if prev != nil && compareIKeys(prev, it.Key()) >= 0 {
			t.Fatal("skip list out of order after concurrent inserts")
		}
		prev = append(prev[:0], it.Key()...)
		count++
	}
	if count != writers*perWriter {
		t.Fatalf("traversed %d entries, want %d", count, writers*perWriter)
	}
	// Every upper level is sorted too: a seek descends through them.
	for level := 1; level < int(sl.height.Load()); level++ {
		for n := sl.head.loadNext(level); n != nil; n = n.loadNext(level) {
			if next := n.loadNext(level); next != nil && compareIKeys(n.key, next.key) >= 0 {
				t.Fatalf("level %d out of order after concurrent inserts", level)
			}
		}
	}
}

func TestSkipListSeekBeyondEnd(t *testing.T) {
	sl := newSkipList()
	sl.insert(makeIKey([]byte("a"), 1, KindSet), valueHandle{})
	if node := sl.seek(makeIKey([]byte("z"), MaxSeq, RecordKind(0xFF))); node != nil {
		t.Error("seek past the end must return nil")
	}
}

func TestSkipListEmpty(t *testing.T) {
	sl := newSkipList()
	if sl.first() != nil {
		t.Error("empty list must have no first node")
	}
	it := sl.iterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Error("iterator over empty list must be invalid")
	}
}
