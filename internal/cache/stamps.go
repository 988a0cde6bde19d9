package cache

import "math"

// This file is the timestamp form of a cache for a contended multi-NPU
// round. A round serves several tenants' interleaved block streams at
// once; every block accesses its tenant's current metadata line, but only
// the accesses that open a line (the tenant's first block of the round, a
// segment start, or a line boundary) can change anything but recency.
// True LRU orders a set by last access, so it is enough to remember each
// line's last access position in the round's merged block stream: the
// victim is the line with the oldest one. A line a tenant holds open is
// accessed at every block of that tenant, so its last access is the
// tenant's last block before the current position, which the caller
// supplies per tenant on demand (Begin's last) instead of a store per
// block. A miss whose victim is a line another tenant holds open is not
// served: that tenant's next block would miss where the round assumes a
// hit, so the round ends before the miss. Lines resident before the round
// carry negative stamps in their LRU order, so every in-round access is
// more recent. Sets are loaded on their first access in the round and
// written back once, in stamp order, at End.

// Stamps is one cache's timestamp form for one round at a time. Its
// storage is retained across rounds, so steady-state rounds allocate
// nothing.
type Stamps struct {
	c      *Cache
	ways   int
	shift  uint
	mask   uint64 // set mask when maskOK, as in Cache
	maskOK bool
	tags   []uint64 // sets*ways, row-major by set
	ts     []int64  // last access of a line no tenant holds open
	owner  []int32  // tenant holding the line open, or -1
	dirty  []bool
	n      []int32 // valid entries per loaded set
	gen    []uint32
	cur    uint32
	// loaded lists the sets loaded this round.
	loaded []int32
	// last returns a tenant's last block position before the current
	// access.
	last    func(owner int) int64
	open    []int32 // per owner: entry index of its open line, or -1
	misses  uint64
	evicted uint64
	wbacks  uint64
}

// Begin starts a round over c with owners tenants. last(u) must return
// tenant u's last block position before the access being made.
func (s *Stamps) Begin(c *Cache, owners int, last func(owner int) int64) {
	if s.c != c || len(s.gen) != c.sets {
		s.c, s.ways = c, c.ways
		s.shift, s.mask, s.maskOK = c.lineShift, c.setMask, c.maskOK
		total := c.sets * c.ways
		s.tags = make([]uint64, total) //tnpu:allocok
		s.ts = make([]int64, total)    //tnpu:allocok
		s.owner = make([]int32, total) //tnpu:allocok
		s.dirty = make([]bool, total)  //tnpu:allocok
		s.n = make([]int32, c.sets)    //tnpu:allocok
		s.gen = make([]uint32, c.sets) //tnpu:allocok
		s.cur = 0
	}
	if cap(s.open) < owners {
		s.open = make([]int32, owners) //tnpu:allocok
	}
	s.open = s.open[:owners]
	for i := range s.open {
		s.open[i] = -1
	}
	if s.cur++; s.cur == 0 {
		// The generation wrapped: no set may look loaded.
		for i := range s.gen {
			s.gen[i] = 0
		}
		s.cur = 1
	}
	s.last = last
	s.loaded = s.loaded[:0]
	s.misses, s.evicted, s.wbacks = 0, 0, 0
}

// load brings set into stamp form on its first access this round.
func (s *Stamps) load(set uint64) {
	if s.gen[set] == s.cur {
		return
	}
	s.gen[set] = s.cur
	s.loaded = append(s.loaded, int32(set)) //tnpu:allocok (grows to the set count once)
	lines := s.c.lines[set]
	base := int(set) * s.ways
	for k := range lines {
		s.tags[base+k] = lines[k].tag
		s.ts[base+k] = -int64(k) - 1
		s.owner[base+k] = -1
		s.dirty[base+k] = lines[k].dirty
	}
	s.n[set] = int32(len(lines))
}

// Way is what owner's access to a line would find: the entry it hits, or
// the one a miss fills (an empty way, or the least recently used line).
type Way struct {
	idx   int32
	flags uint8
}

const (
	wayHit uint8 = 1 << iota
	wayConflict
	wayFull // a miss evicts the entry at idx
)

// Hit reports the line resident.
func (w Way) Hit() bool { return w.flags&wayHit != 0 }

// Conflict reports an access a round does not serve: the line is
// resident and held open by another tenant, or a miss would evict a line
// another tenant holds open.
func (w Way) Conflict() bool { return w.flags&wayConflict != 0 }

// Find locates addr's line for owner without changing anything the round
// or End depend on.
func (s *Stamps) Find(addr uint64, owner int) Way {
	tag := addr >> s.shift
	set := tag & s.mask
	if !s.maskOK {
		set = s.c.setIndex(tag)
	}
	s.load(set)
	base := int(set) * s.ways
	n := int(s.n[set])
	tags := s.tags[base : base+n]
	for k, t := range tags {
		if t == tag {
			w := Way{idx: int32(base + k), flags: wayHit}
			if o := s.owner[base+k]; o >= 0 && int(o) != owner {
				w.flags |= wayConflict
			}
			return w
		}
	}
	if n < s.ways {
		return Way{idx: int32(base + n)}
	}
	// Open lines carry an infinite stamp, so one pass finds the oldest
	// closed line; each open line in the set then competes with its
	// owner's last block.
	victim, oldest := 0, int64(math.MaxInt64)
	for k, t := range s.ts[base : base+n] {
		if t < oldest {
			victim, oldest = k, t
		}
	}
	victim += base
	w := Way{flags: wayFull}
	for u, idx := range s.open {
		if int(idx) >= base && int(idx) < base+n {
			if t := s.last(u); t < oldest {
				victim, oldest = int(idx), t
				w.flags = wayFull
				if u != owner {
					w.flags |= wayConflict
				}
			}
		}
	}
	w.idx = int32(victim)
	return w
}

// DirtyVictim reports the dirty line a miss at w would evict.
func (s *Stamps) DirtyVictim(w Way) (addr uint64, dirty bool) {
	if w.flags != wayFull || !s.dirty[w.idx] {
		return 0, false
	}
	return s.tags[w.idx] << s.c.lineShift, true
}

// Take performs owner's access to addr found at w (which must not
// conflict): the line becomes owner's open line, and owner's previous
// open line closes at its last access, ownerLast, the owner's last block
// position. It returns Access's Result. A hit counts nothing here: End
// charges every lookup in bulk.
func (s *Stamps) Take(w Way, addr uint64, write bool, owner int, ownerLast int64) (res Result) {
	idx := w.idx
	if prev := s.open[owner]; prev >= 0 && prev != idx {
		s.ts[prev] = ownerLast
		s.owner[prev] = -1
	}
	s.open[owner] = idx
	if w.flags&wayHit != 0 {
		s.owner[idx] = int32(owner)
		s.ts[idx] = math.MaxInt64
		s.dirty[idx] = s.dirty[idx] || write
		return Result{Hit: true}
	}
	s.misses++
	if w.flags&wayFull == 0 {
		s.n[int(idx)/s.ways]++
	} else {
		s.evicted++
		if s.dirty[idx] {
			s.wbacks++
			res = Result{Writeback: true, WritebackAddr: s.tags[idx] << s.c.lineShift}
		}
	}
	s.tags[idx], s.ts[idx], s.owner[idx], s.dirty[idx] = addr>>s.shift, math.MaxInt64, int32(owner), write
	return res
}

// End writes the round back to the cache: each loaded set in stamp order,
// most recent first, with last answering every owner's last block before
// the round's end, and lookups accesses counted in total.
func (s *Stamps) End(lookups uint64) {
	c := s.c
	for _, set := range s.loaded {
		base := int(set) * s.ways
		n := int(s.n[set])
		ts := s.ts[base : base+n]
		for k := range ts {
			if o := s.owner[base+k]; o >= 0 {
				ts[k] = s.last(int(o))
			}
		}
		// Insertion sort into the line slice, most recent first: a set
		// holds at most ways entries.
		lines := c.lines[set][:n]
		for k := 0; k < n; k++ {
			l := line{valid: true, dirty: s.dirty[base+k], tag: s.tags[base+k]}
			t := ts[k]
			m := k
			for ; m > 0 && ts[m-1] < t; m-- {
				ts[m] = ts[m-1]
				lines[m] = lines[m-1]
			}
			ts[m], lines[m] = t, l
		}
		c.lines[set] = lines
	}
	c.stats.Lookups += lookups
	c.stats.Misses += s.misses
	c.stats.Evictions += s.evicted
	c.stats.Writebacks += s.wbacks
}
