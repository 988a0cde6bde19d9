package cache

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestStampsMatchAccess drives random multi-tenant block streams through
// a cache twice: every block as one Access (the reference), and through
// rounds of the timestamp form, which see only the blocks that open a
// line — a tenant's first block of the round or a line change. An access
// the stamps refuse (Conflict) ends the round there, as a contended round
// ends: its block goes through Access, as the turn loop serves it, and a
// new round begins with the next block. The cache is tiny (2 sets of 2
// ways, pre-filled with clean and dirty lines), so open lines share sets
// and misses would evict co-tenants' open lines all the time. Results at
// every opening, and the final lines and statistics, must match, and
// every block a round serves without opening its line must hit.
func TestStampsMatchAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	refused := 0
	for trial := 0; trial < 2000; trial++ {
		ref := New("ref", 4*64, 64, 2)
		got := New("got", 4*64, 64, 2)
		for k := 0; k < rng.Intn(5); k++ {
			addr, write := uint64(100+rng.Intn(6))*64, rng.Intn(2) == 0
			ref.Access(addr, write)
			got.Access(addr, write)
		}
		owners := 1 + rng.Intn(3)
		write := make([]bool, owners)
		line := make([]uint64, owners) // current line of each tenant
		needs := make([]bool, owners)  // next block opens its line
		last := make([]int64, owners)  // position of each tenant's last block
		for u := range line {
			write[u] = rng.Intn(2) == 0
			line[u] = uint64(u * 10)
		}
		var s Stamps
		begin := func() {
			for u := range needs {
				needs[u] = true
			}
			s.Begin(got, owners, func(u int) int64 { return last[u] })
		}
		begin()
		var served uint64 // blocks the current round served
		blocks := 1 + rng.Intn(60)
		for q := 0; q < blocks; q++ {
			u := rng.Intn(owners)
			if rng.Intn(3) == 0 {
				// Each tenant moves among its own few lines (tenants never
				// share a line), revisiting some.
				if next := uint64(u*10 + rng.Intn(4)); next != line[u] {
					line[u] = next
					needs[u] = true
				}
			}
			addr := line[u] * 64
			want := ref.Access(addr, write[u])
			if needs[u] {
				w := s.Find(addr, u)
				if w.Conflict() {
					if w.Hit() {
						t.Fatalf("trial %d: tenant %d conflicts on its own line", trial, u)
					}
					refused++
					s.End(served)
					if res := got.Access(addr, write[u]); res != want {
						t.Fatalf("trial %d block %d: Access after the round %+v, reference %+v", trial, q, res, want)
					}
					last[u] = int64(q)
					served = 0
					begin()
					continue
				}
				res := s.Take(w, addr, write[u], u, last[u])
				if res != want {
					t.Fatalf("trial %d block %d: stamps %+v, Access %+v", trial, q, res, want)
				}
				needs[u] = false
			} else if !want.Hit {
				t.Fatalf("trial %d block %d: Access missed on tenant %d's open line", trial, q, u)
			}
			last[u] = int64(q)
			served++
		}
		s.End(served)
		if !reflect.DeepEqual(got.lines, ref.lines) || got.stats != ref.stats {
			t.Fatalf("trial %d: final state differs\n  stamps: %v %+v\n  Access: %v %+v", trial, got.lines, got.stats, ref.lines, ref.stats)
		}
	}
	if refused == 0 {
		t.Fatal("no access was refused for evicting a co-tenant's open line")
	}
}
