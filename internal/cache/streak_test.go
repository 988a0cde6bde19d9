package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// cloneCache duplicates a cache's full tag state so a closed-form call can
// be checked against the per-line reference on a twin.
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
