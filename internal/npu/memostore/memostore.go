// Package memostore is the disk layer under the simulator's caches
// (DESIGN.md §6g): a content-addressed store of whole-run cell results
// that survives process restarts, so a cold harness reloads what an
// earlier process computed instead of re-deriving it. The serving layer's
// result cache (internal/serve.Store) persists its artifacts through it
// too.
//
// Keys are hex SHA-256 digests (safe as file names, collision-free by
// construction), entries are framed with a versioned magic plus a body
// checksum, writes go through a temp file and an atomic rename
// (concurrent writers of one key race safely — the contents are
// identical by construction, either rename wins), and a corrupt or
// truncated entry is deleted and reported as a miss so the caller simply
// recomputes it. Callers bake the simulator code version into every key,
// so a code bump strands stale entries rather than serving them.
//
// There is no compute callback and no singleflight here: the layers
// above own the compute path (and their own singleflight); the store is
// plain Load/Save.
package memostore

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
)

// entryMagic heads every memo entry; the version suffix is the entry
// *format* version, bumped if the framing changes, independent of the
// simulator code version that is part of every key.
const entryMagic = "TNPUMEMO1"

// Store is a disk-backed content-addressed memo store. A nil *Store is a
// valid no-op store: Load always misses and Save drops the body, so
// callers wire it unconditionally.
type Store struct {
	dir string

	loads       atomic.Uint64
	hits        atomic.Uint64
	corrupt     atomic.Uint64
	saves       atomic.Uint64
	errors      atomic.Uint64
	loadedBytes atomic.Uint64
	savedBytes  atomic.Uint64
}

// New opens (creating if needed) a memo directory.
func New(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("memostore: directory must be set")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("memostore: memo dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the memo directory ("" for a nil store).
func (s *Store) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

// path maps a key to its entry file. Keys are validated hex digests, so
// they are safe as file names and cannot traverse out of the directory.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key+".memo")
}

// ValidKey accepts only hex SHA-256 digests.
func ValidKey(key string) bool {
	if len(key) != sha256.Size*2 {
		return false
	}
	_, err := hex.DecodeString(key)
	return err == nil
}

// Load returns the body stored under key, or (nil, false) on a miss. A
// corrupted or truncated entry — bad magic, checksum mismatch, short
// body — is deleted and reported as a miss, so the caller re-records.
func (s *Store) Load(key string) ([]byte, bool) {
	if s == nil {
		return nil, false
	}
	s.loads.Add(1)
	if !ValidKey(key) {
		s.errors.Add(1)
		return nil, false
	}
	raw, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false
	}
	if err != nil {
		s.errors.Add(1)
		return nil, false
	}
	body, ok := decodeEntry(raw)
	if !ok {
		s.corrupt.Add(1)
		// Remove the bad entry so a fresh recording can take its place;
		// ignore the error (another process may have raced the removal
		// or already replaced it).
		os.Remove(s.path(key)) //tnpu:errok
		return nil, false
	}
	s.hits.Add(1)
	s.loadedBytes.Add(uint64(len(body)))
	return body, true
}

// Save persists body under key via temp file + atomic rename, so a reader
// never observes a partially written entry and concurrent writers of one
// key cannot interleave. Failures are counted, not fatal: the recorded
// result is still good in memory even if persisting it failed (disk full,
// read-only directory).
func (s *Store) Save(key string, body []byte) bool {
	if s == nil {
		return false
	}
	if !ValidKey(key) {
		s.errors.Add(1)
		return false
	}
	if err := s.write(key, body); err != nil {
		s.errors.Add(1)
		return false
	}
	s.saves.Add(1)
	s.savedBytes.Add(uint64(len(body)))
	return true
}

// Delete removes key's entry if present (used when a decoded body fails
// the caller's own validation — checksum-valid bytes in a stale shape).
func (s *Store) Delete(key string) {
	if s == nil || !ValidKey(key) {
		return
	}
	os.Remove(s.path(key)) //tnpu:errok (already gone is fine)
}

func (s *Store) write(key string, body []byte) error {
	tmp, err := os.CreateTemp(s.dir, ".tmp-memo-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) //tnpu:errok (no-op after a successful rename)
	w := bufio.NewWriter(tmp)
	sum := sha256.Sum256(body)
	fmt.Fprintf(w, "%s %s %d\n", entryMagic, hex.EncodeToString(sum[:]), len(body))
	w.Write(body) //tnpu:errok (flush below surfaces the error)
	if err := w.Flush(); err != nil {
		tmp.Close() //tnpu:errok
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), s.path(key))
}

// decodeEntry validates framing: magic, body checksum, exact length.
func decodeEntry(raw []byte) ([]byte, bool) {
	nl := bytes.IndexByte(raw, '\n')
	if nl < 0 {
		return nil, false
	}
	fields := bytes.Fields(raw[:nl])
	if len(fields) != 3 || string(fields[0]) != entryMagic {
		return nil, false
	}
	n, err := strconv.Atoi(string(fields[2]))
	if err != nil || n < 0 {
		return nil, false
	}
	body := raw[nl+1:]
	if len(body) != n {
		return nil, false
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != string(fields[1]) {
		return nil, false
	}
	return body, true
}

// Stats is a snapshot of the store counters.
type Stats struct {
	// Loads is total Load calls.
	Loads uint64 `json:"loads"`
	// Hits served a valid on-disk entry.
	Hits uint64 `json:"hits"`
	// Corrupt entries were rejected and deleted (then re-recorded).
	Corrupt uint64 `json:"corrupt"`
	// Saves persisted a fresh entry.
	Saves uint64 `json:"saves"`
	// Errors counts invalid keys, read failures, and write failures.
	Errors uint64 `json:"errors"`
	// LoadedBytes is the body volume read this process.
	LoadedBytes uint64 `json:"loaded_bytes"`
	// SavedBytes is the body volume written this process.
	SavedBytes uint64 `json:"saved_bytes"`
}

// Stats snapshots the counters (zero for a nil store).
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	return Stats{
		Loads:       s.loads.Load(),
		Hits:        s.hits.Load(),
		Corrupt:     s.corrupt.Load(),
		Saves:       s.saves.Load(),
		Errors:      s.errors.Load(),
		LoadedBytes: s.loadedBytes.Load(),
		SavedBytes:  s.savedBytes.Load(),
	}
}
