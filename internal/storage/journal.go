package storage

import (
	"errors"
	"io/fs"
	"sync"
)

// The write-repair journal remembers which (GOP, member) copies a ring
// knows to be missing — a replica write that failed while another
// succeeded, or a failover read that caught a member without the bytes
// a sibling served — so the next Repair pass re-creates exactly those
// copies without walking every member. It is a best-effort accelerator,
// not the durability mechanism: the journal lives in process memory, is
// bounded, and caps attempts per entry; anything it forgets (process
// restart, overflow, a copy that keeps failing) is caught by the next
// full scrub. That split keeps the common case — one member briefly
// down — repaired within one cycle while the scrub stays the ground
// truth. Every replicated ring journals (there is no switch): across
// remote nodes it avoids minutes of under-replication between scrubs,
// across local roots it is the same repair for free.

const (
	// journalMax bounds queued entries; the oldest is evicted (and
	// counted dropped) when a new entry would exceed it.
	journalMax = 4096
	// journalAttempts is the repair budget per entry before it is
	// dropped to the scrub.
	journalAttempts = 5
	// repairBatch bounds the entries one Repair pass drains, so a pass
	// behind a long outage does bounded work per cycle.
	repairBatch = 1024
)

// journalKey identifies one missing replica copy.
type journalKey struct {
	addr   GOPAddr
	member int
}

// journalEntry is one queued repair with its attempt count.
type journalEntry struct {
	journalKey
	attempts int
}

// journal is a bounded FIFO of pending repairs, deduplicated by
// (address, member): a GOP written repeatedly while a member is down costs
// one entry, not one per write. Safe for concurrent use.
type journal struct {
	mu      sync.Mutex
	queue   []journalEntry
	queued  map[journalKey]bool
	dropped int64
}

func newJournal() *journal {
	return &journal{queued: make(map[journalKey]bool)}
}

// add queues one missing copy. Already-queued copies are ignored; when
// the journal is full the oldest entry is evicted to the scrub.
func (j *journal) add(addr GOPAddr, member int) {
	k := journalKey{addr, member}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.queued[k] {
		return
	}
	if len(j.queue) >= journalMax {
		delete(j.queued, j.queue[0].journalKey)
		j.queue = j.queue[1:]
		j.dropped++
	}
	j.queued[k] = true
	j.queue = append(j.queue, journalEntry{journalKey: k})
}

// drain removes and returns up to max entries, oldest first. Drained
// entries are no longer deduplicated against: a write that fails while
// its repair is in flight re-queues independently, which at worst
// repairs the copy twice.
func (j *journal) drain(max int) []journalEntry {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := min(max, len(j.queue))
	batch := make([]journalEntry, n)
	copy(batch, j.queue[:n])
	j.queue = append(j.queue[:0], j.queue[n:]...)
	for _, e := range batch {
		delete(j.queued, e.journalKey)
	}
	return batch
}

// requeue puts a failed repair back, charging one attempt; entries over
// budget are dropped to the scrub instead.
func (j *journal) requeue(e journalEntry) {
	e.attempts++
	j.mu.Lock()
	defer j.mu.Unlock()
	if e.attempts >= journalAttempts || j.queued[e.journalKey] || len(j.queue) >= journalMax {
		j.dropped++
		return
	}
	j.queued[e.journalKey] = true
	j.queue = append(j.queue, e)
}

// forget removes every queued entry whose address matches, so a deleted
// GOP's pending repair cannot resurrect it.
func (j *journal) forget(match func(GOPAddr) bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	kept := j.queue[:0]
	for _, e := range j.queue {
		if match(e.addr) {
			delete(j.queued, e.journalKey)
			continue
		}
		kept = append(kept, e)
	}
	j.queue = kept
}

// depth returns the number of queued entries.
func (j *journal) depth() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.queue)
}

// droppedCount returns the cumulative count of entries evicted without
// repair.
func (j *journal) droppedCount() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.dropped
}

// Repair drains one batch of journaled (GOP, member) repairs: for each,
// the bytes are read from a healthy replica and re-written to the
// member that missed them. Entries whose GOP no longer exists anywhere
// are dropped silently (the GOP was deleted or evicted after
// journaling); entries whose repair fails are re-queued up to their
// attempt budget. Returns the number of copies repaired this pass.
// Serialized internally; safe to call on a timer alongside foreground
// traffic (the store's background loop does), and every Scrub starts
// with one.
func (r *Ring) Repair() (int, error) {
	r.repairMu.Lock()
	defer r.repairMu.Unlock()
	r.repairCycles.Add(1)
	repaired := 0
	var errs []error
	for _, e := range r.journal.drain(repairBatch) {
		data, ok, err := r.readForRepair(e)
		if err != nil {
			errs = append(errs, err)
		}
		if !ok {
			continue
		}
		err = r.members[e.member].WriteGOP(e.addr.Video, e.addr.PhysDir, e.addr.Seq, data)
		r.note(e.member, err)
		if err != nil {
			r.repairFailures.Add(1)
			r.journal.requeue(e)
			errs = append(errs, r.memberErr(e.member, err))
			continue
		}
		r.repaired.Add(1)
		repaired++
	}
	return repaired, errors.Join(errs...)
}

// readForRepair fetches the authoritative bytes for one journal entry
// from the GOP's placement members, skipping the repair target itself.
// ok is false when the entry should not be repaired now: every source
// misses (the GOP is gone — entry dropped) or every source errors
// (entry re-queued).
func (r *Ring) readForRepair(e journalEntry) (data []byte, ok bool, err error) {
	var errs []error
	for _, i := range r.placement(e.addr.Video, e.addr.PhysDir, e.addr.Seq) {
		if i == e.member {
			continue
		}
		d, rerr := r.members[i].ReadGOP(e.addr.Video, e.addr.PhysDir, e.addr.Seq)
		if errors.Is(rerr, fs.ErrNotExist) {
			continue // source genuinely has no copy; not the member's fault
		}
		r.note(i, rerr)
		if rerr == nil {
			return d, true, nil
		}
		errs = append(errs, r.memberErr(i, rerr))
	}
	if len(errs) > 0 {
		// No healthy source reachable right now — try again later rather
		// than concluding the GOP is gone.
		r.repairFailures.Add(1)
		r.journal.requeue(e)
		return nil, false, errors.Join(errs...)
	}
	// Every source agrees the GOP does not exist: deleted or evicted
	// after journaling. The entry is resolved, not failed.
	return nil, false, nil
}
