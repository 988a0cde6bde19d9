package serve

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/npu/memostore"
)

// testKey builds a valid content address for test payloads.
func testKey(parts ...string) string { return exp.Digest("test-version", parts...) }

func mustGet(t *testing.T, s *Store, key string, compute func() ([]byte, error)) ([]byte, Source) {
	t.Helper()
	data, src, err := s.Get(key, compute)
	if err != nil {
		t.Fatalf("Get(%.12s): %v", key, err)
	}
	return data, src
}

func TestStoreComputeThenDiskHit(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("cell", "a")
	payload := []byte(`{"cycles":12345}`)
	computes := 0
	compute := func() ([]byte, error) { computes++; return payload, nil }

	data, src := mustGet(t, s, key, compute)
	if src != SourceCompute || !bytes.Equal(data, payload) || computes != 1 {
		t.Fatalf("first lookup: src=%s computes=%d data=%q", src, computes, data)
	}
	data, src = mustGet(t, s, key, compute)
	if src != SourceDisk || !bytes.Equal(data, payload) || computes != 1 {
		t.Fatalf("second lookup: src=%s computes=%d", src, computes)
	}

	// A fresh store over the same directory — a process restart — serves
	// from disk without recomputing.
	s2, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, src = mustGet(t, s2, key, func() ([]byte, error) {
		t.Error("restarted process recomputed a cached entry")
		return payload, nil
	})
	if src != SourceDisk || !bytes.Equal(data, payload) {
		t.Fatalf("post-restart lookup: src=%s", src)
	}

	st := s.Stats()
	if st.Lookups != 2 || st.Computes != 1 || st.DiskHits != 1 || st.Stores != 1 || st.Corrupt != 0 || st.Errors != 0 {
		t.Errorf("stats: %+v", st)
	}
}

// TestStoreEntriesAreMemostoreEntries pins the single disk format: a
// result persisted by Get is a memostore entry, loadable byte-for-byte by
// a plain memostore.Store over the same directory.
func TestStoreEntriesAreMemostoreEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("format")
	payload := []byte(`{"cycles":4242}`)
	mustGet(t, s, key, func() ([]byte, error) { return payload, nil })

	ms, err := memostore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := ms.Load(key)
	if !ok || !bytes.Equal(body, payload) {
		t.Fatalf("memostore.Load = %q, %v; want %q", body, ok, payload)
	}
}

// TestStoreCorruptEntryRecomputed mangles a persisted entry through the
// disk format and checks each one is rejected, recomputed, and repaired
// in place through Get.
func TestStoreCorruptEntryRecomputed(t *testing.T) {
	payload := []byte(`{"cycles":999,"traffic":123456}`)
	corruptions := []struct {
		name string
		mod  func([]byte) []byte
	}{
		{"truncated-body", func(raw []byte) []byte { return raw[:len(raw)-3] }},
		{"flipped-body-byte", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0x40
			return out
		}},
		{"bad-magic", func(raw []byte) []byte {
			out := append([]byte(nil), raw...)
			out[0] = 'X'
			return out
		}},
		{"empty-file", func([]byte) []byte { return nil }},
		{"header-only", func(raw []byte) []byte { return raw[:bytes.IndexByte(raw, '\n')+1] }},
		{"appended-garbage", func(raw []byte) []byte { return append(append([]byte(nil), raw...), "tail"...) }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := NewStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := testKey("corrupt", tc.name)
			mustGet(t, s, key, func() ([]byte, error) { return payload, nil })

			path := filepath.Join(dir, key+".memo")
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mod(raw), 0o644); err != nil {
				t.Fatal(err)
			}

			recomputed := false
			data, src := mustGet(t, s, key, func() ([]byte, error) { recomputed = true; return payload, nil })
			if !recomputed || src != SourceCompute {
				t.Fatalf("corrupt entry served: src=%s recomputed=%v", src, recomputed)
			}
			if !bytes.Equal(data, payload) {
				t.Fatalf("recomputed data mismatch: %q", data)
			}
			if got := s.Stats().Corrupt; got != 1 {
				t.Errorf("corrupt counter = %d, want 1", got)
			}
			// The rewritten entry must be whole again.
			_, src = mustGet(t, s, key, func() ([]byte, error) {
				t.Error("repaired entry recomputed")
				return payload, nil
			})
			if src != SourceDisk {
				t.Errorf("repaired entry src=%s, want disk", src)
			}
		})
	}
}

// TestStoreVersionBumpInvalidates checks the content-address scheme: the
// code version is part of every digest, so bumping it makes old entries
// unreachable instead of stale.
func TestStoreVersionBumpInvalidates(t *testing.T) {
	dir := t.TempDir()
	s, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cell := func(version string) string { return cellKey(version, "df", exp.Small, memprot.TreeLess, 1) }
	oldPayload := []byte(`{"cycles":1}`)
	newPayload := []byte(`{"cycles":2}`)

	mustGet(t, s, cell("v1"), func() ([]byte, error) { return oldPayload, nil })

	data, src := mustGet(t, s, cell("v2"), func() ([]byte, error) { return newPayload, nil })
	if src != SourceCompute || !bytes.Equal(data, newPayload) {
		t.Fatalf("version bump served stale entry: src=%s data=%q", src, data)
	}
	// The old version's entry is stranded, not clobbered: a rollback
	// still sees its own result.
	data, src = mustGet(t, s, cell("v1"), func() ([]byte, error) {
		t.Error("v1 entry lost")
		return nil, nil
	})
	if src != SourceDisk || !bytes.Equal(data, oldPayload) {
		t.Fatalf("v1 lookup after bump: src=%s data=%q", src, data)
	}
}

// TestCellKey pins the /api/cell result-cache key: the model, class,
// scheme, NPU count and code version each move it, and two known keys
// keep their bytes, so a refactor cannot strand the disk cache unnoticed.
func TestCellKey(t *testing.T) {
	ref := cellKey(exp.CodeVersion, "df", exp.Small, memprot.TreeLess, 1)
	if ref != "e38f74ec11650d2b225ea6f060e0c95456c1b5a0e0db68e987c31f162a7fb03d" ||
		cellKey(exp.CodeVersion, "res", exp.Large, memprot.Baseline, 3) != "9911aa5cdd58f4f777f25919837d98291e8db2434f00951bd543686b5ff43a61" {
		t.Errorf("/api/cell keys changed under %s", exp.CodeVersion)
	}
	variants := map[string]string{
		"model":   cellKey(exp.CodeVersion, "res", exp.Small, memprot.TreeLess, 1),
		"class":   cellKey(exp.CodeVersion, "df", exp.Large, memprot.TreeLess, 1),
		"scheme":  cellKey(exp.CodeVersion, "df", exp.Small, memprot.Baseline, 1),
		"count":   cellKey(exp.CodeVersion, "df", exp.Small, memprot.TreeLess, 2),
		"version": cellKey("other-version", "df", exp.Small, memprot.TreeLess, 1),
	}
	for what, k := range variants { //tnpu:orderfree — each variant checked independently
		if k == ref {
			t.Errorf("changing the %s did not change the cell key", what)
		}
	}
}

// TestStoreSingleflight gates one slow compute and floods the key: only
// one computation may run; everyone else waits and shares it.
func TestStoreSingleflight(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("singleflight")
	const waiters = 64

	started := make(chan struct{})
	release := make(chan struct{})
	var computes int
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, _, err := s.Get(key, func() ([]byte, error) {
				computes++ // only one goroutine may ever run this
				close(started)
				<-release
				return []byte("x"), nil
			})
			if err != nil || string(data) != "x" {
				t.Errorf("waiter: data=%q err=%v", data, err)
			}
		}()
	}
	<-started
	close(release)
	wg.Wait()
	if computes != 1 {
		t.Fatalf("computes = %d, want 1", computes)
	}
	st := s.Stats()
	if st.Computes != 1 || st.FlightHits+st.DiskHits != waiters-1 {
		t.Errorf("stats after flood: %+v", st)
	}
}

// TestStoreErrorsNotCached: a failed computation must not poison the key.
func TestStoreErrorsNotCached(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey("transient")
	boom := fmt.Errorf("transient failure")
	if _, _, err := s.Get(key, func() ([]byte, error) { return nil, boom }); err != boom {
		t.Fatalf("first Get err = %v, want the compute error", err)
	}
	data, src := mustGet(t, s, key, func() ([]byte, error) { return []byte("ok"), nil })
	if src != SourceCompute || string(data) != "ok" {
		t.Fatalf("retry after error: src=%s data=%q", src, data)
	}
}

func TestStoreRejectsInvalidKeys(t *testing.T) {
	s, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"", "short", "../../etc/passwd", testKey("x") + "00"} {
		if _, _, err := s.Get(key, func() ([]byte, error) { return nil, nil }); err == nil {
			t.Errorf("key %q accepted", key)
		}
	}
}
