// Package catalog is the embedded, durable metadata store underlying VSS —
// the role SQLite plays in the paper's prototype. It persists the
// descriptions of logical videos, physical videos, and GOPs.
//
// The store is a simple but crash-safe design: an in-memory map of tables,
// an append-only write-ahead log with per-record CRC32 framing, and
// periodic snapshots. Opening a database loads the latest snapshot and
// replays the WAL, discarding a torn trailing record. All operations are
// safe for concurrent use.
package catalog

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

const (
	walName      = "wal.log"
	snapshotName = "snapshot.json"
	tmpSuffix    = ".tmp"
)

// DB is an open catalog. A DB owns its directory; at most one DB should be
// open per directory at a time.
type DB struct {
	mu     sync.RWMutex
	dir    string
	tables map[string]map[string]json.RawMessage
	wal    *os.File
	walBuf *bufio.Writer
	walLen int // records in the WAL since last snapshot
	closed bool

	snapshotEvery int // automatic snapshot after this many WAL records
}

// walRecord is one logged mutation.
type walRecord struct {
	Op    string          `json:"op"` // "put" or "del"
	Table string          `json:"t"`
	Key   string          `json:"k"`
	Value json.RawMessage `json:"v,omitempty"`
}

// Open loads (or creates) a catalog in dir.
func Open(dir string) (*DB, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	db := &DB{
		dir:           dir,
		tables:        make(map[string]map[string]json.RawMessage),
		snapshotEvery: 10000,
	}
	if err := db.loadSnapshot(); err != nil {
		return nil, err
	}
	if err := db.replayWAL(); err != nil {
		return nil, err
	}
	wal, err := os.OpenFile(filepath.Join(dir, walName), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	db.wal = wal
	db.walBuf = bufio.NewWriter(wal)
	return db, nil
}

func (db *DB) loadSnapshot() error {
	data, err := os.ReadFile(filepath.Join(db.dir, snapshotName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := json.Unmarshal(data, &db.tables); err != nil {
		return fmt.Errorf("catalog: corrupt snapshot: %w", err)
	}
	if db.tables == nil {
		db.tables = make(map[string]map[string]json.RawMessage)
	}
	return nil
}

// replayWAL applies logged mutations on top of the snapshot. A torn final
// record (bad CRC or truncated JSON) terminates replay without error: it
// is the expected artifact of a crash mid-append.
func (db *DB) replayWAL() error {
	f, err := os.Open(filepath.Join(db.dir, walName))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		rec, ok := decodeWALLine(line)
		if !ok {
			break // torn tail
		}
		db.apply(rec)
		db.walLen++
	}
	return nil
}

// decodeWALLine parses "crc8hex json". Returns ok=false for damaged lines.
func decodeWALLine(line string) (walRecord, bool) {
	var rec walRecord
	i := strings.IndexByte(line, ' ')
	if i != 8 {
		return rec, false
	}
	want, err := strconv.ParseUint(line[:8], 16, 32)
	if err != nil {
		return rec, false
	}
	payload := line[9:]
	if crc32.ChecksumIEEE([]byte(payload)) != uint32(want) {
		return rec, false
	}
	if json.Unmarshal([]byte(payload), &rec) != nil {
		return rec, false
	}
	return rec, true
}

func (db *DB) apply(rec walRecord) {
	switch rec.Op {
	case "put":
		t := db.tables[rec.Table]
		if t == nil {
			t = make(map[string]json.RawMessage)
			db.tables[rec.Table] = t
		}
		t[rec.Key] = rec.Value
	case "del":
		delete(db.tables[rec.Table], rec.Key)
	}
}

// commit logs a record, applies it, and snapshots when the WAL grows past
// the threshold. Apply must precede the snapshot so the snapshot includes
// the record whose WAL entry the snapshot truncates away.
func (db *DB) commit(rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	crc := crc32.ChecksumIEEE(payload)
	if _, err := fmt.Fprintf(db.walBuf, "%08x %s\n", crc, payload); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := db.walBuf.Flush(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	db.apply(rec)
	db.walLen++
	if db.walLen >= db.snapshotEvery {
		_, err := db.snapshotLocked()
		return err
	}
	return nil
}

// Put stores value (JSON-marshaled) under (table, key).
func (db *DB) Put(table, key string, value any) error {
	raw, err := json.Marshal(value)
	if err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("catalog: closed")
	}
	return db.commit(walRecord{Op: "put", Table: table, Key: key, Value: raw})
}

// Get unmarshals the value at (table, key) into out, reporting whether the
// key exists.
func (db *DB) Get(table, key string, out any) (bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	raw, ok := db.tables[table][key]
	if !ok {
		return false, nil
	}
	if out == nil {
		return true, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return true, fmt.Errorf("catalog: %w", err)
	}
	return true, nil
}

// Delete removes (table, key); deleting a missing key is a no-op.
func (db *DB) Delete(table, key string) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("catalog: closed")
	}
	if _, ok := db.tables[table][key]; !ok {
		return nil
	}
	return db.commit(walRecord{Op: "del", Table: table, Key: key})
}

// Keys returns the sorted keys of a table.
func (db *DB) Keys(table string) []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t := db.tables[table]
	out := make([]string, 0, len(t))
	for k := range t {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Scan invokes fn for each key of a table in sorted order. fn receives the
// raw JSON; returning an error aborts the scan.
func (db *DB) Scan(table string, fn func(key string, raw json.RawMessage) error) error {
	db.mu.RLock()
	t := db.tables[table]
	keys := make([]string, 0, len(t))
	for k := range t {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rows := make([]json.RawMessage, len(keys))
	for i, k := range keys {
		rows[i] = t[k]
	}
	db.mu.RUnlock()
	for i, k := range keys {
		if err := fn(k, rows[i]); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of keys in a table.
func (db *DB) Len(table string) int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return len(db.tables[table])
}

// Snapshot durably writes the current state and truncates the WAL.
func (db *DB) Snapshot() error {
	_, err := db.SnapshotBytes()
	return err
}

// SnapshotBytes is Snapshot, additionally returning the written snapshot
// bytes, so a caller that replicates the snapshot elsewhere (core's
// catalog replication onto the storage backend) need not re-read the
// file it just caused to be written.
func (db *DB) SnapshotBytes() ([]byte, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, errors.New("catalog: closed")
	}
	return db.snapshotLocked()
}

func (db *DB) snapshotLocked() ([]byte, error) {
	data, err := json.Marshal(db.tables)
	if err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	tmp := filepath.Join(db.dir, snapshotName+tmpSuffix)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(db.dir, snapshotName)); err != nil {
		return nil, fmt.Errorf("catalog: %w", err)
	}
	// Truncate the WAL: records up to here are in the snapshot.
	if db.wal != nil {
		if err := db.walBuf.Flush(); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		if err := db.wal.Truncate(0); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		if _, err := db.wal.Seek(0, 0); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		db.walBuf.Reset(db.wal)
	}
	db.walLen = 0
	return data, nil
}

// Restore writes a snapshot (bytes produced by Snapshot/SnapshotBytes)
// into dir as the catalog's entire state, discarding any WAL — the
// recovery path for rebuilding a store's catalog from a replicated copy.
// The snapshot is validated before anything is touched, and the write is
// atomic, so a bad snapshot cannot half-destroy an existing catalog. dir
// must not have an open DB.
func Restore(dir string, data []byte) error {
	var tables map[string]map[string]json.RawMessage
	if err := json.Unmarshal(data, &tables); err != nil {
		return fmt.Errorf("catalog: restore: corrupt snapshot: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("catalog: restore: %w", err)
	}
	tmp := filepath.Join(dir, snapshotName+tmpSuffix)
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("catalog: restore: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, snapshotName)); err != nil {
		return fmt.Errorf("catalog: restore: %w", err)
	}
	// A leftover WAL predates the snapshot being restored; replaying it
	// on top would resurrect stale mutations.
	if err := os.Remove(filepath.Join(dir, walName)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("catalog: restore: %w", err)
	}
	return nil
}

// Sync flushes buffered WAL records to the OS and fsyncs.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return errors.New("catalog: closed")
	}
	if err := db.walBuf.Flush(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	if err := db.wal.Sync(); err != nil {
		return fmt.Errorf("catalog: %w", err)
	}
	return nil
}

// Close flushes and closes the catalog.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if err := db.walBuf.Flush(); err != nil {
		db.wal.Close()
		return fmt.Errorf("catalog: %w", err)
	}
	return db.wal.Close()
}
