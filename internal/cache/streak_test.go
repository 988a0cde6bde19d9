package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// cloneCache duplicates a cache's full tag state so a streak call can be
// checked against the per-line reference on a twin.
func cloneCache(c *Cache) *Cache {
	d := New("clone", c.SizeBytes(), int(c.lineBytes), c.ways)
	for s := range c.lines {
		d.lines[s] = append(d.lines[s][:0], c.lines[s]...)
	}
	d.stats = c.stats
	return d
}

func sameState(t *testing.T, label string, a, b *Cache) {
	t.Helper()
	if !reflect.DeepEqual(a.lines, b.lines) {
		t.Fatalf("%s: line state diverged:\n%v\nvs\n%v", label, a.lines, b.lines)
	}
	if a.stats != b.stats {
		t.Fatalf("%s: stats diverged: %+v vs %+v", label, a.stats, b.stats)
	}
}

// TestAccessStreakMatchesAccess drives random streaks against the per-line
// reference on a twin cache: outcomes, tag state, LRU order, dirty bits,
// and statistics must match exactly. The tiny geometry (2 sets x 2 ways)
// forces every edge case — streaks that wrap the set array many times,
// aliasing within one streak, and eviction of a line the same streak
// touched earlier.
func TestAccessStreakMatchesAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := New("streak", 256, 64, 2) // 2 sets, 2 ways
	ref := cloneCache(c)
	var out []Result
	for step := 0; step < 500; step++ {
		base := uint64(rng.Intn(16)) * 64
		n := 1 + rng.Intn(12) // up to 3x the whole cache: guaranteed aliasing
		write := rng.Intn(2) == 0
		out = c.AccessStreak(base, n, write, out[:0])
		for i := 0; i < n; i++ {
			want := ref.Access(base+uint64(i)*64, write)
			if out[i] != want {
				t.Fatalf("step %d line %d: streak result %+v, reference %+v", step, i, out[i], want)
			}
		}
		sameState(t, "after streak", c, ref)
		// Interleave individual accesses so streaks start from varied state.
		a := uint64(rng.Intn(16)) * 64
		if r1, r2 := c.Access(a, false), ref.Access(a, false); r1 != r2 {
			t.Fatalf("step %d: interleaved access diverged", step)
		}
	}
}

// TestAccessStreakEvictsEarlierLine pins the nastiest in-streak alias: a
// streak long enough to wrap the set array evicts — with writeback — a
// dirty line the same streak installed a few iterations earlier.
func TestAccessStreakEvictsEarlierLine(t *testing.T) {
	c := New("alias", 256, 64, 2) // 2 sets x 2 ways: lines 0,2 -> set 0
	out := c.AccessStreak(0, 6, true, nil)
	// Lines 0..5: set0 gets 0,2,4 and set1 gets 1,3,5. Line 4 must evict
	// line 0 (LRU of set 0), which this same streak dirtied.
	for i, want := range []Result{
		{}, {},
		{}, {},
		{Writeback: true, WritebackAddr: 0 * 64},
		{Writeback: true, WritebackAddr: 1 * 64},
	} {
		if out[i] != want {
			t.Fatalf("line %d: got %+v, want %+v", i, out[i], want)
		}
	}
	if c.Probe(0) || c.Probe(64) {
		t.Fatal("streak-evicted lines still resident")
	}
	if !c.Probe(4*64) || !c.Probe(5*64) {
		t.Fatal("streak tail not resident")
	}
	if s := c.Stats(); s.Lookups != 6 || s.Misses != 6 || s.Writebacks != 2 {
		t.Fatalf("stats = %+v, want 6 lookups / 6 misses / 2 writebacks", *s)
	}
}

// TestPeekVictimPredictsAccess checks PeekVictim against the Access that
// follows it, over random traffic: residency must predict the hit, the
// dirty-victim report must predict the writeback, and the peek itself must
// move no state and no counters.
func TestPeekVictimPredictsAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	c := New("peek", 256, 64, 2)
	for step := 0; step < 300; step++ {
		addr := uint64(rng.Intn(16)) * 64
		twin := cloneCache(c)
		resident, dirtyVictim, victim := c.PeekVictim(addr)
		sameState(t, "after peek", c, twin)
		res := c.Access(addr, rng.Intn(2) == 0)
		if res.Hit != resident {
			t.Fatalf("step %d: peek resident=%v but access hit=%v", step, resident, res.Hit)
		}
		if res.Writeback != dirtyVictim || (dirtyVictim && res.WritebackAddr != victim) {
			t.Fatalf("step %d: peek victim (%v,%#x) but access writeback (%v,%#x)",
				step, dirtyVictim, victim, res.Writeback, res.WritebackAddr)
		}
	}
}

// TestAddRunHits pins the closed-form covered-block accounting: only the
// demand lookup counter moves, by exactly the requested amount.
func TestAddRunHits(t *testing.T) {
	c := New("hits", 256, 64, 2)
	c.Access(0, false)
	before := *c.Stats()
	twin := cloneCache(c)
	c.AddRunHits(41)
	if got := *c.Stats(); got.Lookups != before.Lookups+41 || got.Misses != before.Misses ||
		got.Evictions != before.Evictions || got.Writebacks != before.Writebacks {
		t.Fatalf("stats after AddRunHits = %+v, before %+v", got, before)
	}
	if !reflect.DeepEqual(c.lines, twin.lines) {
		t.Fatal("AddRunHits moved line state")
	}
}
