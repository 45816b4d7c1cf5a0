// Package storagetest exports the storage backend conformance suite, so
// Backend implementations that live outside package storage — the remote
// backend exercised over a live vssd node, the router's cluster backend —
// can prove the same observable semantics as localfs/sharded/mem. The
// checks here ARE the Backend contract: error chains matching
// fs.ErrNotExist for missing GOPs, caller-owned read bytes, idempotent
// deletes, link-survives-source-delete, exactly-once Walk, and one
// complete winner under concurrent same-GOP writes.
package storagetest

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"sync"
	"testing"

	"repro/internal/storage"
)

// Conformance runs the shared semantic suite against one backend. The
// backend must be empty; the suite leaves data behind, so give each call
// a fresh instance.
func Conformance(t *testing.T, b storage.Backend) {
	t.Helper()
	if b.Name() == "" {
		t.Error("backend has no name")
	}

	// Write/read round trip, overwrite semantics, and size.
	payload := []byte("gop payload")
	if err := b.WriteGOP("v", "p1", 0, payload); err != nil {
		t.Fatal(err)
	}
	got, err := b.ReadGOP("v", "p1", 0)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: %v %q", err, got)
	}
	// Read bytes are the caller's: mutating them must not reach back
	// into the store (passthrough reads hand them to API clients).
	for i := range got {
		got[i] = 'z'
	}
	if again, err := b.ReadGOP("v", "p1", 0); err != nil || !bytes.Equal(again, payload) {
		t.Fatalf("caller mutation corrupted stored GOP: %v %q", err, again)
	}
	if err := b.WriteGOP("v", "p1", 0, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if got, _ := b.ReadGOP("v", "p1", 0); string(got) != "rewritten" {
		t.Errorf("overwrite not visible: %q", got)
	}
	if n, err := b.GOPSize("v", "p1", 0); err != nil || n != int64(len("rewritten")) {
		t.Errorf("size %d err %v", n, err)
	}

	// Missing GOPs must error with a chain matching fs.ErrNotExist
	// (replica failover and scrub depend on it).
	if _, err := b.ReadGOP("v", "p1", 99); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing read error %v, want fs.ErrNotExist chain", err)
	}
	if _, err := b.GOPSize("v", "p1", 99); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing size error %v, want fs.ErrNotExist chain", err)
	}

	// Delete is idempotent; missing deletes are not errors.
	if err := b.DeleteGOP("v", "p1", 0); err != nil {
		t.Fatal(err)
	}
	if err := b.DeleteGOP("v", "p1", 0); err != nil {
		t.Errorf("double delete: %v", err)
	}
	if _, err := b.ReadGOP("v", "p1", 0); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("deleted GOP still readable (err %v)", err)
	}

	// Link shares bytes; deleting the source must not disturb the target
	// (hard link on localfs, copy fallback elsewhere — same observable
	// semantics).
	if err := b.WriteGOP("v", "p1", 3, []byte("shared")); err != nil {
		t.Fatal(err)
	}
	if err := b.LinkGOP("v", "p1", 3, "w", "p2", 0); err != nil {
		t.Fatal(err)
	}
	if got, err := b.ReadGOP("w", "p2", 0); err != nil || string(got) != "shared" {
		t.Fatalf("linked read: %v %q", err, got)
	}
	if err := b.DeleteGOP("v", "p1", 3); err != nil {
		t.Fatal(err)
	}
	if got, err := b.ReadGOP("w", "p2", 0); err != nil || string(got) != "shared" {
		t.Errorf("link target lost after source delete: %v %q", err, got)
	}
	if err := b.LinkGOP("v", "p1", 3, "w", "p2", 1); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("link from missing source error %v, want fs.ErrNotExist chain", err)
	}

	// DeletePhysical removes exactly one physical video's GOPs.
	for seq := 0; seq < 4; seq++ {
		if err := b.WriteGOP("v", "pA", seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
		if err := b.WriteGOP("v", "pB", seq, []byte{byte(seq)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.DeletePhysical("v", "pA"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadGOP("v", "pA", 0); !errors.Is(err, fs.ErrNotExist) {
		t.Error("deleted physical still readable")
	}
	if _, err := b.ReadGOP("v", "pB", 0); err != nil {
		t.Errorf("unrelated physical removed: %v", err)
	}

	// Walk enumerates every (video, physDir, seq) exactly once with its
	// stored size.
	seen := map[string]int64{}
	err = b.Walk(func(video, physDir string, seq int, size int64) error {
		key := fmt.Sprintf("%s/%s/%d", video, physDir, seq)
		if _, dup := seen[key]; dup {
			return fmt.Errorf("walk visited %s twice", key)
		}
		seen[key] = size
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{
		"w/p2/0": int64(len("shared")),
		"v/pB/0": 1, "v/pB/1": 1, "v/pB/2": 1, "v/pB/3": 1,
	}
	if len(seen) != len(want) {
		t.Errorf("walk saw %v, want keys %v", seen, want)
	}
	for k, sz := range want {
		if seen[k] != sz {
			t.Errorf("walk %s size %d, want %d", k, seen[k], sz)
		}
	}

	// DeleteVideo removes a logical video entirely and leaves others.
	if err := b.DeleteVideo("v"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.ReadGOP("v", "pB", 0); !errors.Is(err, fs.ErrNotExist) {
		t.Error("deleted video still readable")
	}
	if got, err := b.ReadGOP("w", "p2", 0); err != nil || string(got) != "shared" {
		t.Errorf("unrelated video removed: %v %q", err, got)
	}
}

// ConcurrentWriteSameGOP regresses the temp-file collision: two writers
// racing on the same <seq>.gop used to share one path+".tmp" name and
// could interleave into a torn file or fail the rename. With unique temp
// names, the winner must always be one writer's complete payload.
func ConcurrentWriteSameGOP(t *testing.T, b storage.Backend) {
	t.Helper()
	const writers, rounds = 8, 25
	payloads := make([][]byte, writers)
	for i := range payloads {
		p := bytes.Repeat([]byte{byte('a' + i)}, 4096)
		payloads[i] = p
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := b.WriteGOP("v", "p1", 7, payloads[i]); err != nil {
					errs[i] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	got, err := b.ReadGOP("v", "p1", 7)
	if err != nil {
		t.Fatal(err)
	}
	ok := false
	for _, p := range payloads {
		if bytes.Equal(got, p) {
			ok = true
			break
		}
	}
	if !ok {
		t.Fatalf("stored GOP is not any writer's payload (len %d, first byte %q)", len(got), got[:1])
	}
}
