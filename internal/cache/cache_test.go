package cache

import (
	"testing"
	"testing/quick"

	"tnpu/internal/stats"
)

func TestBasicHitMiss(t *testing.T) {
	c := New("test", 4096, 64, 8)
	if r := c.Access(0, false); r.Hit {
		t.Fatal("first access should miss")
	}
	if r := c.Access(0, false); !r.Hit {
		t.Fatal("second access to same line should hit")
	}
	if r := c.Access(63, false); !r.Hit {
		t.Fatal("access within same 64B line should hit")
	}
	if r := c.Access(64, false); r.Hit {
		t.Fatal("access to next line should miss")
	}
	s := c.Stats()
	if s.Lookups != 4 || s.Misses != 2 {
		t.Fatalf("stats = %+v, want 4 lookups / 2 misses", *s)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, single set: 2 lines of 64B = 128B, ways=2 -> 1 set.
	c := New("test", 128, 64, 2)
	c.Access(0*64, false)
	c.Access(1*64, false)
	c.Access(0*64, false) // line 0 now MRU
	r := c.Access(2*64, false)
	if r.Hit {
		t.Fatal("third distinct line must miss")
	}
	if c.Probe(1 * 64) {
		t.Fatal("line 1 (LRU) should have been evicted")
	}
	if !c.Probe(0 * 64) {
		t.Fatal("line 0 (MRU) should survive")
	}
}

func TestDirtyWriteback(t *testing.T) {
	c := New("test", 128, 64, 2)
	c.Access(0*64, true) // dirty
	c.Access(1*64, false)
	r := c.Access(2*64, false) // evicts line 0 (LRU, dirty)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Fatalf("expected writeback of addr 0, got %+v", r)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteHitMarksDirty(t *testing.T) {
	c := New("test", 128, 64, 2)
	c.Access(0*64, false) // clean allocate
	c.Access(0*64, true)  // write hit -> dirty
	c.Access(1*64, false)
	r := c.Access(2*64, false)
	if !r.Writeback {
		t.Fatal("write-hit line should be written back on eviction")
	}
}

func TestFlush(t *testing.T) {
	c := New("test", 4096, 64, 8)
	c.Access(0*64, true)
	c.Access(1*64, false)
	c.Access(2*64, true)
	dirty := c.Flush()
	if len(dirty) != 2 {
		t.Fatalf("flush returned %d dirty lines, want 2", len(dirty))
	}
	if c.Probe(0) || c.Probe(64) || c.Probe(128) {
		t.Fatal("cache should be empty after flush")
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	c := New("test", 128, 64, 2)
	c.Access(0*64, false)
	c.Access(1*64, false) // line 1 MRU, line 0 LRU
	c.Probe(0 * 64)       // must NOT promote line 0
	c.Access(2*64, false) // evicts LRU
	if c.Probe(0 * 64) {
		t.Fatal("probe must not update LRU order")
	}
	before := c.Stats().Lookups
	c.Probe(1 * 64)
	if c.Stats().Lookups != before {
		t.Fatal("probe must not count as lookup")
	}
}

func TestFullyAssociativeClamp(t *testing.T) {
	// Request 16 ways but only 2 lines fit: becomes fully associative.
	c := New("tiny", 128, 64, 16)
	c.Access(0*64, false)
	c.Access(1*64, false)
	if !c.Probe(0*64) || !c.Probe(1*64) {
		t.Fatal("both lines should fit")
	}
	c.Access(2*64, false)
	if c.Probe(0 * 64) {
		t.Fatal("LRU line should be evicted in fully-associative mode")
	}
}

func TestSizeAccessors(t *testing.T) {
	c := New("test", 8192, 64, 8)
	if c.SizeBytes() != 8192 {
		t.Errorf("SizeBytes = %d", c.SizeBytes())
	}
	if c.LineBytes() != 64 {
		t.Errorf("LineBytes = %d", c.LineBytes())
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for _, fn := range []func(){
		func() { New("x", 4096, 63, 8) }, // non power-of-two line
		func() { New("x", 100, 64, 8) },  // size not multiple of line
		func() { New("x", 4096, 64, 0) }, // zero ways
		func() { New("x", 0, 64, 8) },    // zero size
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for bad config")
				}
			}()
			fn()
		}()
	}
}

// Property: the cache never holds more distinct resident lines than its
// capacity, and an immediate re-access of any address always hits.
func TestCapacityAndReaccessProperty(t *testing.T) {
	c := New("prop", 1024, 64, 4) // 16 lines
	f := func(addrs []uint16) bool {
		for _, a := range addrs {
			addr := uint64(a) * 64
			c.Access(addr, a%2 == 0)
			if r := c.Access(addr, false); !r.Hit {
				return false
			}
		}
		resident := 0
		for a := uint64(0); a < 1<<16; a++ {
			if c.Probe(a * 64) {
				resident++
			}
		}
		return resident <= 16
	}
	cfg := &quick.Config{MaxCount: 20}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// Property: lookups == hits + misses (misses counted), and evictions never
// exceed misses.
func TestStatsConsistencyProperty(t *testing.T) {
	f := func(addrs []uint16) bool {
		c := New("prop", 512, 64, 2)
		for _, a := range addrs {
			c.Access(uint64(a)*64, a%3 == 0)
		}
		s := c.Stats()
		return s.Lookups == uint64(len(addrs)) &&
			s.Misses <= s.Lookups &&
			s.Evictions <= s.Misses &&
			s.Writebacks <= s.Evictions
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWorkingSetLargerThanCacheThrashes(t *testing.T) {
	c := New("test", 4096, 64, 8) // 64 lines
	// Stream 128 distinct lines twice: second pass must still miss
	// because the working set is 2x capacity (LRU streaming pattern).
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 128; i++ {
			c.Access(i*64, false)
		}
	}
	s := c.Stats()
	if s.Misses != s.Lookups {
		t.Fatalf("cyclic stream over 2x capacity should always miss under LRU: %d misses of %d", s.Misses, s.Lookups)
	}
}

func TestPrefetchLeavesDemandStatsAlone(t *testing.T) {
	c := New("test", 4096, 64, 8)
	c.Access(0, false)
	before := *c.Stats()
	if r := c.Prefetch(64); r.Hit {
		t.Error("prefetch of an absent line reported resident")
	}
	if r := c.Prefetch(64); !r.Hit {
		t.Error("prefetch of a resident line reported absent")
	}
	s := c.Stats()
	if s.Lookups != before.Lookups || s.Misses != before.Misses {
		t.Errorf("prefetch moved demand counters: %+v -> %+v", before, *s)
	}
	if s.Prefetches != 1 {
		t.Errorf("prefetch fills = %d, want 1 (resident re-prefetch must not count)", s.Prefetches)
	}
	if r := c.Access(64, false); !r.Hit {
		t.Error("prefetched line missed on demand access")
	}
}

func TestPrefetchWritesBackDirtyVictim(t *testing.T) {
	// 2-way, single set.
	c := New("test", 128, 64, 2)
	c.Access(0*64, true) // dirty
	c.Access(1*64, false)
	c.Access(1*64, false) // line 0 is now LRU
	r := c.Prefetch(2 * 64)
	if !r.Writeback || r.WritebackAddr != 0 {
		t.Errorf("prefetch eviction of dirty LRU not reported: %+v", r)
	}
	if c.Stats().Writebacks != 1 || c.Stats().Evictions != 1 {
		t.Errorf("eviction accounting off: %+v", *c.Stats())
	}
}

// TestAccessRunMatchesRepeatedAccess pins AccessRun's contract: it must be
// observably identical — result, statistics, LRU order, dirty bits — to
// calling Access count times back to back.
func TestAccessRunMatchesRepeatedAccess(t *testing.T) {
	for _, write := range []bool{false, true} {
		batched := New("batched", 256, 64, 2)
		ref := New("ref", 256, 64, 2)
		// Shared warm-up: a dirty line, a clean line, then thrash one set.
		for _, c := range []*Cache{batched, ref} {
			c.Access(0, true)
			c.Access(256, false)
			c.Access(512, false)
		}
		res := batched.AccessRun(512, 5, write)
		var want Result
		for i := 0; i < 5; i++ {
			want = ref.Access(512, write)
		}
		if res != want {
			t.Errorf("write=%v: AccessRun = %+v, repeated Access = %+v", write, res, want)
		}
		if *batched.Stats() != *ref.Stats() {
			t.Errorf("write=%v: stats diverged: %+v vs %+v", write, *batched.Stats(), *ref.Stats())
		}
		// Follow-up eviction pressure must see identical LRU/dirty state.
		rb := batched.Access(768, false)
		rr := ref.Access(768, false)
		if rb != rr {
			t.Errorf("write=%v: post-run eviction diverged: %+v vs %+v", write, rb, rr)
		}
	}
}

// TestAccessRunZeroCount: a zero-length run is a no-op reporting a hit.
func TestAccessRunZeroCount(t *testing.T) {
	c := New("test", 256, 64, 2)
	if r := c.AccessRun(0, 0, true); !r.Hit || r.Writeback {
		t.Errorf("zero-count run = %+v, want pure hit", r)
	}
	if s := c.Stats(); *s != (stats.CacheStats{}) {
		t.Errorf("zero-count run touched stats: %+v", *s)
	}
}
