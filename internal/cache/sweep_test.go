package cache

import (
	"math/rand"
	"testing"
)

// TestSweepMatchesAccess drives random consecutive-line sweeps against
// per-line Access on a twin cache: BeginSweep must report cold exactly when
// no line of the range is resident, every Outcome of a cold sweep must equal
// the reference's per-line result, and CommitPrefix must leave tag state,
// LRU order, dirty bits, and statistics identical to the reference serving
// the same prefix. Small geometries force aliasing, self-eviction, and
// dirty-victim cases.
func TestSweepMatchesAccess(t *testing.T) {
	for _, geom := range []struct {
		name  string
		size  int
		ways  int
		lines int // address space in lines to draw from
	}{
		{"2x2", 256, 2, 16},
		{"4x4", 1024, 4, 40},
		{"1set", 256, 4, 12},  // fully associative: one set takes all lines
		{"3sets", 576, 3, 24}, // non-power-of-two set count: modulo indexing
	} {
		t.Run(geom.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(geom.size)))
			c := New("sweep", geom.size, 64, geom.ways)
			ref := cloneCache(c)
			var s Sweep
			warm, cold := 0, 0
			for step := 0; step < 600; step++ {
				base := uint64(rng.Intn(geom.lines)) * 64
				n := 1 + rng.Intn(geom.lines)
				write := rng.Intn(2) == 0

				resident := 0
				for i := 0; i < n; i++ {
					if ref.Probe(base + uint64(i)*64) {
						resident++
					}
				}
				if got := c.BeginSweep(&s, base, n, write); got != (resident == 0) {
					t.Fatalf("step %d: %d/%d lines resident but cold=%v", step, resident, n, got)
				}

				if resident > 0 {
					// Caller contract: serve the range line by line on both.
					warm++
					for i := 0; i < n; i++ {
						a := base + uint64(i)*64
						if r1, r2 := c.Access(a, write), ref.Access(a, write); r1 != r2 {
							t.Fatalf("step %d line %d: access diverged", step, i)
						}
					}
					sameState(t, "after per-line fallback", c, ref)
					continue
				}
				cold++

				// Commit a random prefix (full commit most of the time) and
				// serve the same prefix on the reference.
				k := n
				if rng.Intn(4) == 0 {
					k = rng.Intn(n + 1)
				}
				for i := 0; i < k; i++ {
					got := s.Outcome(i)
					want := ref.Access(base+uint64(i)*64, write)
					if got != want {
						t.Fatalf("step %d line %d/%d (write=%v): outcome %+v, reference %+v",
							step, i, n, write, got, want)
					}
				}
				s.CommitPrefix(k)
				sameState(t, "after commit", c, ref)

				// Perturb: a few individual accesses so sweeps start from
				// varied dirty/LRU state.
				for p := 0; p < 3; p++ {
					a := uint64(rng.Intn(geom.lines)) * 64
					wr := rng.Intn(2) == 0
					if r1, r2 := c.Access(a, wr), ref.Access(a, wr); r1 != r2 {
						t.Fatalf("step %d: interleaved access diverged", step)
					}
				}
			}
			if warm == 0 || cold == 0 {
				t.Fatalf("sweep classes not exercised: warm=%d cold=%d", warm, cold)
			}
		})
	}
}

// TestSweepUniformFrom pins the cold steady-state boundary: from capacity
// lines onward every outcome is a miss with a self-eviction victim exactly
// capacity lines back, dirty exactly when the sweep writes.
func TestSweepUniformFrom(t *testing.T) {
	c := New("uniform", 1024, 64, 4) // 4 sets x 4 ways = 16 lines capacity
	// Pre-warm with scattered dirty lines so the prefix is genuinely varied.
	for i := 0; i < 7; i++ {
		c.Access(uint64(1000+i*3)*64, i%2 == 0)
	}
	var s Sweep
	n := 40
	if !c.BeginSweep(&s, 0, n, true) {
		t.Fatal("expected cold sweep")
	}
	uf := s.UniformFrom()
	if uf != 16 {
		t.Fatalf("UniformFrom = %d, want capacity 16", uf)
	}
	for i := uf; i < n; i++ {
		want := Result{Writeback: true, WritebackAddr: uint64(i-uf) * 64}
		if got := s.Outcome(i); got != want {
			t.Fatalf("line %d: got %+v, want %+v", i, got, want)
		}
	}
	s.CommitPrefix(n)
	// Read sweep over fresh range: self-evictions clean.
	if !c.BeginSweep(&s, 1<<20, n, false) {
		t.Fatal("expected cold sweep")
	}
	for i := s.UniformFrom(); i < n; i++ {
		if got := s.Outcome(i); got != (Result{}) {
			t.Fatalf("read line %d: got %+v, want clean miss", i, got)
		}
	}
}
