package storage

import (
	"fmt"
	"testing"
)

func addrN(i int) GOPAddr {
	return GOPAddr{Video: "v", PhysDir: "p", Seq: i}
}

func TestJournalDedupes(t *testing.T) {
	j := newJournal()
	for range 5 {
		j.add(addrN(1), 0)
	}
	j.add(addrN(1), 1) // same address, different node: distinct copy
	if got := j.depth(); got != 2 {
		t.Errorf("depth = %d, want 2", got)
	}
}

func TestJournalDrainFIFO(t *testing.T) {
	j := newJournal()
	for i := range 5 {
		j.add(addrN(i), 0)
	}
	batch := j.drain(3)
	if len(batch) != 3 || batch[0].addr != addrN(0) || batch[2].addr != addrN(2) {
		t.Fatalf("drain = %v", batch)
	}
	if got := j.depth(); got != 2 {
		t.Errorf("depth after drain = %d, want 2", got)
	}
	// Drained entries are re-addable (no longer deduplicated against).
	j.add(addrN(0), 0)
	if got := j.depth(); got != 3 {
		t.Errorf("depth after re-add = %d, want 3", got)
	}
}

func TestJournalOverflowEvictsOldest(t *testing.T) {
	j := newJournal()
	for i := range journalMax + 10 {
		j.add(GOPAddr{Video: fmt.Sprintf("v%d", i), PhysDir: "p", Seq: 0}, 0)
	}
	if got := j.depth(); got != journalMax {
		t.Errorf("depth = %d, want %d", got, journalMax)
	}
	if got := j.droppedCount(); got != 10 {
		t.Errorf("dropped = %d, want 10", got)
	}
	if head := j.drain(1); head[0].addr.Video != "v10" {
		t.Errorf("head = %s, want v10 (oldest ten evicted)", head[0].addr.Video)
	}
}

func TestJournalRequeueBudget(t *testing.T) {
	j := newJournal()
	j.add(addrN(1), 0)
	for i := 0; i < journalAttempts; i++ {
		batch := j.drain(1)
		if len(batch) != 1 {
			t.Fatalf("attempt %d: journal empty early", i)
		}
		j.requeue(batch[0])
	}
	// The entry has now consumed its budget; the final requeue drops it.
	if got := j.depth(); got != 0 {
		t.Errorf("depth = %d, want 0 (entry over attempt budget)", got)
	}
	if got := j.droppedCount(); got != 1 {
		t.Errorf("dropped = %d, want 1", got)
	}
}

func TestJournalForget(t *testing.T) {
	j := newJournal()
	j.add(GOPAddr{Video: "keep", PhysDir: "p", Seq: 0}, 0)
	j.add(GOPAddr{Video: "gone", PhysDir: "p", Seq: 0}, 0)
	j.add(GOPAddr{Video: "gone", PhysDir: "p", Seq: 1}, 1)
	j.forget(func(a GOPAddr) bool { return a.Video == "gone" })
	if got := j.depth(); got != 1 {
		t.Errorf("depth = %d, want 1", got)
	}
	// Forgotten entries must be re-addable: the index entry went with them.
	j.add(GOPAddr{Video: "gone", PhysDir: "p", Seq: 0}, 0)
	if got := j.depth(); got != 2 {
		t.Errorf("depth after re-add = %d, want 2", got)
	}
}
