package catalog

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

type rec struct {
	Name string `json:"name"`
	N    int    `json:"n"`
}

func TestPutGetRoundTrip(t *testing.T) {
	db, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Put("videos", "traffic", rec{"traffic", 42}); err != nil {
		t.Fatal(err)
	}
	var got rec
	ok, err := db.Get("videos", "traffic", &got)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if got.Name != "traffic" || got.N != 42 {
		t.Errorf("got %+v", got)
	}
	ok, _ = db.Get("videos", "missing", &got)
	if ok {
		t.Error("missing key reported present")
	}
	ok, _ = db.Get("nosuchtable", "x", &got)
	if ok {
		t.Error("missing table reported present")
	}
}

func TestGetNilOutChecksExistence(t *testing.T) {
	db, _ := Open(t.TempDir())
	defer db.Close()
	db.Put("t", "k", 1)
	ok, err := db.Get("t", "k", nil)
	if !ok || err != nil {
		t.Errorf("existence check: %v %v", ok, err)
	}
}

func TestDelete(t *testing.T) {
	db, _ := Open(t.TempDir())
	defer db.Close()
	db.Put("t", "k", 1)
	if err := db.Delete("t", "k"); err != nil {
		t.Fatal(err)
	}
	if ok, _ := db.Get("t", "k", nil); ok {
		t.Error("deleted key still present")
	}
	if err := db.Delete("t", "never-existed"); err != nil {
		t.Errorf("deleting missing key should be a no-op: %v", err)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	for i := 0; i < 100; i++ {
		db.Put("gops", fmt.Sprintf("g%03d", i), rec{N: i})
	}
	db.Delete("gops", "g050")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n := db2.Len("gops"); n != 99 {
		t.Errorf("after reopen: %d keys, want 99", n)
	}
	var got rec
	ok, _ := db2.Get("gops", "g042", &got)
	if !ok || got.N != 42 {
		t.Errorf("g042 = %+v (ok=%v)", got, ok)
	}
	if ok, _ := db2.Get("gops", "g050", nil); ok {
		t.Error("deleted key resurrected")
	}
}

func TestSnapshotAndWALInterplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	db.Put("t", "a", 1)
	db.Put("t", "b", 2)
	if err := db.Snapshot(); err != nil {
		t.Fatal(err)
	}
	db.Put("t", "c", 3) // lands in post-snapshot WAL
	db.Delete("t", "a")
	db.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if ok, _ := db2.Get("t", "a", nil); ok {
		t.Error("post-snapshot delete lost")
	}
	var v int
	if ok, _ := db2.Get("t", "c", &v); !ok || v != 3 {
		t.Error("post-snapshot put lost")
	}
}

func TestTornWALTailIgnored(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	db.Put("t", "good", 1)
	db.Close()

	// Simulate a crash mid-append: garbage trailing bytes.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("deadbeef {\"op\":\"put\",\"t\":\"t\",\"k\":\"torn\"")
	f.Close()

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if ok, _ := db2.Get("t", "good", nil); !ok {
		t.Error("valid record lost")
	}
	if ok, _ := db2.Get("t", "torn", nil); ok {
		t.Error("torn record applied")
	}
}

func TestCorruptCRCStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	db.Put("t", "a", 1)
	db.Put("t", "b", 2)
	db.Close()

	// Flip a byte in the middle of the WAL: replay must stop there.
	path := filepath.Join(dir, walName)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xFF
	os.WriteFile(path, data, 0o644)

	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	// "a" may survive (if corruption hit record 2); "b" must not if the
	// corruption hit record 1. Either way Open succeeds and state is a
	// prefix of history.
	if ok, _ := db2.Get("t", "b", nil); ok {
		okA, _ := db2.Get("t", "a", nil)
		if !okA {
			t.Error("suffix applied without prefix: not a prefix of history")
		}
	}
}

func TestKeysSorted(t *testing.T) {
	db, _ := Open(t.TempDir())
	defer db.Close()
	for _, k := range []string{"zeta", "alpha", "mid"} {
		db.Put("t", k, 1)
	}
	keys := db.Keys("t")
	want := []string{"alpha", "mid", "zeta"}
	if len(keys) != 3 {
		t.Fatalf("keys %v", keys)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Errorf("keys[%d] = %s, want %s", i, keys[i], want[i])
		}
	}
}

func TestScan(t *testing.T) {
	db, _ := Open(t.TempDir())
	defer db.Close()
	for i := 0; i < 5; i++ {
		db.Put("t", fmt.Sprintf("k%d", i), rec{N: i})
	}
	var sum int
	err := db.Scan("t", func(key string, raw json.RawMessage) error {
		var r rec
		if err := json.Unmarshal(raw, &r); err != nil {
			return err
		}
		sum += r.N
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum != 10 {
		t.Errorf("scan sum %d", sum)
	}
	// Aborting scan propagates the error.
	wantErr := fmt.Errorf("stop")
	err = db.Scan("t", func(string, json.RawMessage) error { return wantErr })
	if err != wantErr {
		t.Errorf("scan abort error %v", err)
	}
}

func TestAutoSnapshot(t *testing.T) {
	dir := t.TempDir()
	db, _ := Open(dir)
	db.snapshotEvery = 10
	for i := 0; i < 25; i++ {
		db.Put("t", fmt.Sprintf("k%d", i), i)
	}
	db.Close()
	// Snapshot must exist and WAL must have been truncated at least once.
	if _, err := os.Stat(filepath.Join(dir, snapshotName)); err != nil {
		t.Error("auto snapshot not written")
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if db2.Len("t") != 25 {
		t.Errorf("after auto snapshot reopen: %d keys", db2.Len("t"))
	}
}

func TestClosedOperationsFail(t *testing.T) {
	db, _ := Open(t.TempDir())
	db.Close()
	if err := db.Put("t", "k", 1); err == nil {
		t.Error("put on closed db should fail")
	}
	if err := db.Delete("t", "k"); err == nil {
		t.Error("delete on closed db should fail")
	}
	if err := db.Snapshot(); err == nil {
		t.Error("snapshot on closed db should fail")
	}
	if err := db.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestConcurrentAccess(t *testing.T) {
	db, _ := Open(t.TempDir())
	defer db.Close()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				key := fmt.Sprintf("w%d-%d", w, i)
				if err := db.Put("t", key, i); err != nil {
					t.Error(err)
					return
				}
				var v int
				if ok, err := db.Get("t", key, &v); !ok || err != nil || v != i {
					t.Errorf("readback %s: %v %v %d", key, ok, err, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if db.Len("t") != 400 {
		t.Errorf("len %d, want 400", db.Len("t"))
	}
}

func TestSync(t *testing.T) {
	db, _ := Open(t.TempDir())
	defer db.Close()
	db.Put("t", "k", 1)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
}

func TestLargeValues(t *testing.T) {
	db, _ := Open(t.TempDir())
	defer db.Close()
	big := make([]byte, 1<<20)
	for i := range big {
		big[i] = byte(i)
	}
	if err := db.Put("t", "big", big); err != nil {
		t.Fatal(err)
	}
	var got []byte
	ok, err := db.Get("t", "big", &got)
	if !ok || err != nil || len(got) != len(big) {
		t.Fatalf("large value round trip: %v %v %d", ok, err, len(got))
	}
}
