package core

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"unsafe"
)

// This file implements the analysis memo: the per-frame content records
// (FrameInfo) analyzeRGB computed for one decoded GOP, kept so a later
// predicate read of the same pixels skips detection and motion. Entries
// are keyed by a SHA-256 of everything the decoded pixels depend on
// (gopSnap.inputKey), so a rewrite that changes a GOP's pixels — joint
// compression, deferred recompression, eviction and reuse of its address
// — changes its key: nothing is ever invalidated, and stale entries age
// out of the LRU.

// analysisMemoBytes bounds one store's memo. An 8-frame GOP with a few
// detections per frame costs well under a kilobyte, so the bound holds
// the analysis of thousands of GOPs.
const analysisMemoBytes = 8 << 20

// memoKey is a SHA-256 over a GOP's decode inputs.
type memoKey [sha256.Size]byte

// inputKey names everything decodeSnap's frames [from, to) depend on: the
// stored bytes (deferred-lossless framing included), a joint GOP's
// parameters and partner bytes, and the canvas size. Snapshots with equal
// keys decode to the same pixels.
func (s gopSnap) inputKey(from, to int) memoKey {
	h := sha256.New()
	var b [8]byte
	num := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	blob := func(p []byte) {
		num(uint64(len(p)))
		h.Write(p)
	}
	blob(s.data)
	blob(s.partner)
	for _, v := range []int{s.width, s.height, from, to} {
		num(uint64(v))
	}
	if j := s.joint; j != nil {
		blob([]byte(j.Role))
		blob([]byte(j.Partner.Video))
		num(uint64(j.Partner.Phys))
		num(uint64(j.Partner.Seq))
		for _, v := range j.H {
			num(math.Float64bits(v))
		}
		num(uint64(j.SplitL))
		num(uint64(j.SplitR))
		blob([]byte(j.Merge))
	}
	var k memoKey
	h.Sum(k[:0])
	return k
}

// analysisMemo is a byte-bounded LRU of per-GOP analyses, safe for
// concurrent use. It stores and returns copies: callers own the
// Detections of every FrameInfo they get.
type analysisMemo struct {
	mu    sync.Mutex
	bound int64
	bytes int64
	lru   *list.List // of *memoEntry, most recently used first
	items map[memoKey]*list.Element
}

type memoEntry struct {
	key   memoKey
	infos []FrameInfo
	size  int64
}

func newAnalysisMemo(bound int64) *analysisMemo {
	return &analysisMemo{bound: bound, lru: list.New(), items: make(map[memoKey]*list.Element)}
}

// memoEntryBytes is what an entry for infos costs against the bound.
func memoEntryBytes(infos []FrameInfo) int64 {
	n := int64(unsafe.Sizeof(memoEntry{})+unsafe.Sizeof(list.Element{})) + int64(len(infos))*int64(unsafe.Sizeof(FrameInfo{}))
	for _, fi := range infos {
		n += int64(len(fi.Detections)) * int64(unsafe.Sizeof(Detection{}))
	}
	return n
}

// copyInfos deep-copies infos with one allocation for all detections,
// preserving nil versus empty detection lists.
func copyInfos(infos []FrameInfo) []FrameInfo {
	total := 0
	for _, fi := range infos {
		total += len(fi.Detections)
	}
	dets := make([]Detection, 0, total)
	out := make([]FrameInfo, len(infos))
	for i, fi := range infos {
		out[i].Motion = fi.Motion
		if fi.Detections != nil {
			lo := len(dets)
			dets = append(dets, fi.Detections...)
			out[i].Detections = dets[lo:len(dets):len(dets)]
		}
	}
	return out
}

// get returns a copy of the analysis stored under k.
func (m *analysisMemo) get(k memoKey) ([]FrameInfo, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	el, ok := m.items[k]
	if !ok {
		return nil, false
	}
	m.lru.MoveToFront(el)
	return copyInfos(el.Value.(*memoEntry).infos), true
}

// put stores a copy of infos under k, evicting the least recently used
// entries to stay within the bound. An analysis larger than the whole
// bound is not stored.
func (m *analysisMemo) put(k memoKey, infos []FrameInfo) {
	size := memoEntryBytes(infos)
	if size > m.bound {
		return
	}
	e := &memoEntry{key: k, infos: copyInfos(infos), size: size}
	m.mu.Lock()
	defer m.mu.Unlock()
	if el, ok := m.items[k]; ok {
		m.lru.MoveToFront(el) // a concurrent read of the same GOP got here first
		return
	}
	m.items[k] = m.lru.PushFront(e)
	m.bytes += size
	for m.bytes > m.bound {
		old := m.lru.Remove(m.lru.Back()).(*memoEntry)
		delete(m.items, old.key)
		m.bytes -= old.size
	}
}
