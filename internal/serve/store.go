// Package serve wraps the experiment harness (exp.Runner) in a
// long-running simulation service: a bounded worker pool and job queue, a
// disk-backed content-addressed result cache with singleflight, SSE
// progress streaming, and HTTP handlers serving figures and simulation
// cells as JSON/SVG artifacts (DESIGN.md §8).
package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"tnpu/internal/npu/memostore"
)

// Source classifies where a Store lookup's bytes came from.
type Source string

// Lookup outcomes, in decreasing cheapness.
const (
	// SourceDisk: a valid entry was read from the cache directory.
	SourceDisk Source = "disk"
	// SourceFlight: another request was already computing the same key;
	// this lookup waited for it (in-process singleflight).
	SourceFlight Source = "flight"
	// SourceCompute: this lookup ran the computation and stored it.
	SourceCompute Source = "compute"
)

// Store is the content-addressed result cache: an in-process flight map
// over a memostore.Store. Keys are hex digests (exp.Digest over code
// version + logical cell identity), so an entry is valid for exactly as
// long as the code that produced it: a code version bump changes every
// digest and strands — rather than serves — stale results. Concurrent
// lookups of one key are singleflighted within the process; across
// processes the memostore write protocol makes concurrent writers race
// safely. A corrupt or unreadable entry is a counted miss and recomputed.
type Store struct {
	disk *memostore.Store

	mu       sync.Mutex
	inflight map[string]*flight

	// StoreStats counters; the disk-side ones live in disk.
	lookups  atomic.Uint64
	flights  atomic.Uint64
	computes atomic.Uint64
	errors   atomic.Uint64
}

// flight is one in-progress computation; latecomers block on done.
type flight struct {
	done chan struct{}
	data []byte
	err  error
}

// NewStore opens (creating if needed) a cache directory.
func NewStore(dir string) (*Store, error) {
	disk, err := memostore.New(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: cache: %w", err)
	}
	return &Store{disk: disk, inflight: make(map[string]*flight)}, nil
}

// Get serves key from cache if possible, otherwise runs compute (exactly
// once per key across concurrent callers) and persists the result. Errors
// are never cached: a failed computation is retried by the next lookup.
func (s *Store) Get(key string, compute func() ([]byte, error)) ([]byte, Source, error) {
	s.lookups.Add(1)
	if !memostore.ValidKey(key) {
		s.errors.Add(1)
		return nil, "", fmt.Errorf("serve: invalid cache key %q", key)
	}

	s.mu.Lock()
	if f, ok := s.inflight[key]; ok {
		s.mu.Unlock()
		s.flights.Add(1)
		<-f.done
		return f.data, SourceFlight, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	s.mu.Unlock()

	src := SourceDisk
	var ok bool
	if f.data, ok = s.disk.Load(key); !ok {
		src = SourceCompute
		s.computes.Add(1)
		f.data, f.err = compute()
		if f.err != nil {
			s.errors.Add(1)
		} else {
			// The result is good even if persisting it failed (disk full,
			// read-only cache); serve it — the disk store counts the error.
			s.disk.Save(key, f.data)
		}
	}

	s.mu.Lock()
	delete(s.inflight, key)
	s.mu.Unlock()
	close(f.done)
	return f.data, src, f.err
}

// StoreStats is a snapshot of the cache counters.
type StoreStats struct {
	// Lookups is total Get calls.
	Lookups uint64 `json:"lookups"`
	// DiskHits served a valid on-disk entry.
	DiskHits uint64 `json:"disk_hits"`
	// FlightHits waited on a concurrent computation of the same key.
	FlightHits uint64 `json:"flight_hits"`
	// Computes ran the computation (disk+flight both missed).
	Computes uint64 `json:"computes"`
	// Stores persisted a fresh entry.
	Stores uint64 `json:"stores"`
	// Corrupt entries were rejected (and recomputed).
	Corrupt uint64 `json:"corrupt"`
	// Errors counts invalid keys, failed computations, and disk read and
	// write failures.
	Errors uint64 `json:"errors"`
	// StoredBytes is the body volume written this process.
	StoredBytes uint64 `json:"stored_bytes"`
}

// Stats snapshots the counters.
func (s *Store) Stats() StoreStats {
	d := s.disk.Stats()
	return StoreStats{
		Lookups:     s.lookups.Load(),
		DiskHits:    d.Hits,
		FlightHits:  s.flights.Load(),
		Computes:    s.computes.Load(),
		Stores:      d.Saves,
		Corrupt:     d.Corrupt,
		Errors:      s.errors.Load() + d.Errors,
		StoredBytes: d.SavedBytes,
	}
}

// Hits is disk + flight hits: lookups that did not recompute.
func (st StoreStats) Hits() uint64 { return st.DiskHits + st.FlightHits }
