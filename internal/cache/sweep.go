package cache

// This file resolves a cold consecutive-line sweep against the cache in
// closed form. The batched protection engines touch metadata lines in
// strictly ascending address order, one access per line. When no line of
// the range is resident, every access misses, and the per-line outcome of
// the sequential walk is a pure function of the pre-sweep set states:
// consecutive tags stripe round-robin across sets, so the j-th in-range
// line landing in a set meets exactly j earlier in-range lines there, and
// true-LRU eviction order within the set is the old lines from the LRU
// position upward, followed by the in-range lines in insertion order.
//
// BeginSweep prescans the touched sets once and reports whether the range
// is cold. A range with any resident line has no closed form here: the
// caller serves it line by line through Access.
//
// Outcome(i) answers the i-th access in O(1) without touching state;
// CommitPrefix(k) applies the final state and statistics of the first k
// accesses in O(sets×ways). The commit takes a prefix because the baseline
// engine can abandon a streak mid-run and hand the remaining lines to the
// reference path, which must then see exactly the state the first k
// accesses left.

// Sweep holds the prescanned per-set state of one cold consecutive-line
// range. A Sweep is owned (and reused) by its caller; all storage is
// retained across BeginSweep calls.
type Sweep struct {
	c        *Cache
	firstTag uint64
	n        int
	write    bool
	// Per touched set offset o (the set of line o, i.e. set
	// (setIndex(firstTag)+o) mod sets), recorded at BeginSweep:
	oldLen   []int32  // valid lines before the sweep
	oldDirty []uint64 // dirty bitmask by LRU position (bit p = position p)
	oldTags  []uint64 // old tags row-major [o*ways+pos], MRU first
}

// UniformFrom returns the line index from which every outcome of a cold
// sweep is identical — miss, eviction, and a self-eviction victim (an
// earlier in-range line), which is dirty exactly when the sweep writes.
// From capacity lines onward the incoming line's set holds only in-range
// lines, regardless of how full each set was before. Callers collapse
// [UniformFrom, n) to bulk arithmetic and walk only the prefix per line.
func (s *Sweep) UniformFrom() int { return s.c.sets * s.c.ways }

// BeginSweep prescans the n consecutive lines starting at the line holding
// addr and reports whether none of them is resident. write marks the
// would-be accesses as writes (dirty allocation). No cache state or
// statistics are touched; on false the sweep holds nothing usable and the
// caller serves the range through Access.
func (c *Cache) BeginSweep(s *Sweep, addr uint64, n int, write bool) (cold bool) {
	if n <= 0 || c.ways > 64 {
		return false
	}
	firstTag := addr >> c.lineShift
	touched := n
	if touched > c.sets {
		touched = c.sets
	}
	if cap(s.oldLen) < touched {
		s.oldLen = make([]int32, touched)      //tnpu:allocok
		s.oldDirty = make([]uint64, touched)   //tnpu:allocok
		s.oldTags = make([]uint64, 0, touched) // grown below //tnpu:allocok
	}
	s.oldLen = s.oldLen[:touched]
	s.oldDirty = s.oldDirty[:touched]
	if cap(s.oldTags) < touched*c.ways {
		s.oldTags = make([]uint64, touched*c.ways) //tnpu:allocok
	}
	s.oldTags = s.oldTags[:touched*c.ways]

	firstSet := c.setIndex(firstTag)
	for o := 0; o < touched; o++ {
		set := c.lines[(firstSet+uint64(o))%uint64(c.sets)]
		s.oldLen[o] = int32(len(set))
		var dirtyMask uint64
		for p := range set {
			if set[p].valid && set[p].tag-firstTag < uint64(n) {
				return false
			}
			s.oldTags[o*c.ways+p] = set[p].tag
			if set[p].dirty {
				dirtyMask |= 1 << uint(p)
			}
		}
		s.oldDirty[o] = dirtyMask
	}
	s.c = c
	s.firstTag = firstTag
	s.n = n
	s.write = write
	return true
}

// Outcome returns what the i-th access of the sweep (0-indexed) observes —
// exactly the Result Access would return at that point of the sequential
// walk: always a miss, with the victim's writeback if it is dirty. Pure: no
// state or statistics move.
func (s *Sweep) Outcome(i int) Result {
	c := s.c
	o := i % c.sets
	j := int32(i / c.sets) // earlier in-range lines in this set
	e := s.oldLen[o] + j - int32(c.ways)
	if e < 0 {
		return Result{} // miss, set not yet full
	}
	if e < s.oldLen[o] {
		// Victim is an old line, evicted from the LRU end upward.
		pos := s.oldLen[o] - 1 - e
		if s.oldDirty[o]&(1<<uint(pos)) != 0 {
			return Result{Writeback: true, WritebackAddr: s.oldTags[o*c.ways+int(pos)] << c.lineShift}
		}
		return Result{}
	}
	// Self-eviction: the victim is the (e-oldLen)-th in-range line this set
	// received, dirty exactly when the sweep writes.
	if s.write {
		victim := uint64(o) + uint64(e-s.oldLen[o])*uint64(c.sets)
		return Result{Writeback: true, WritebackAddr: (s.firstTag + victim) << c.lineShift}
	}
	return Result{}
}

// CommitPrefix applies the final cache state and statistics of the first k
// accesses of the sweep, identically to k sequential Access calls. The
// remaining lines are untouched (the caller re-classifies them if it needs
// to continue). Commit the full sweep with k == n.
func (s *Sweep) CommitPrefix(k int) {
	if k <= 0 {
		return
	}
	if k > s.n {
		k = s.n
	}
	c := s.c
	firstSet := c.setIndex(s.firstTag)
	// Every access misses; per set the survivors are the last
	// min(ways, oldLen+ks) lines by recency.
	c.stats.Lookups += uint64(k)
	c.stats.Misses += uint64(k)
	var evictions, writebacks uint64
	for o := 0; o < s.touchedFor(k); o++ {
		ks := int32(countIncoming(o, k, c.sets))
		oldLen := s.oldLen[o]
		ways := int32(c.ways)
		// Evictions: accesses j with oldLen+j >= ways.
		if ev := ks - maxI32(0, ways-oldLen); ev > 0 {
			evictions += uint64(ev)
		}
		// Old-line writebacks: victims at LRU positions oldLen-1-e for
		// e in [0, min(oldLen, ks-(ways-oldLen))).
		if eMax := minI32(oldLen, ks-(ways-oldLen)); eMax > 0 {
			// Positions oldLen-eMax .. oldLen-1.
			mask := s.oldDirty[o] >> uint(oldLen-eMax)
			mask &= (1 << uint(eMax)) - 1
			writebacks += uint64(popcount64(mask))
		}
		// Self-eviction writebacks: accesses j >= ways, dirty iff writing.
		if s.write {
			if sv := ks - ways; sv > 0 {
				writebacks += uint64(sv)
			}
		}
		// Final content: in-range lines j in [max(0, ks-ways), ks)
		// descending (MRU first), then surviving old lines in order.
		var buf [64]line
		bn := 0
		lo := maxI32(0, ks-ways)
		for j := ks - 1; j >= lo; j-- {
			tag := s.firstTag + uint64(o) + uint64(j)*uint64(c.sets)
			buf[bn] = line{valid: true, dirty: s.write, tag: tag}
			bn++
		}
		keepOld := minI32(oldLen, ways-ks)
		set := c.lines[(firstSet+uint64(o))%uint64(c.sets)]
		for p := int32(0); p < keepOld; p++ {
			buf[bn] = set[p]
			bn++
		}
		set = set[:bn]
		copy(set, buf[:bn])
		c.lines[(firstSet+uint64(o))%uint64(c.sets)] = set
	}
	c.stats.Evictions += evictions
	c.stats.Writebacks += writebacks
}

// touchedFor returns how many set offsets the first k lines reach.
func (s *Sweep) touchedFor(k int) int {
	if k < s.c.sets {
		return k
	}
	return s.c.sets
}

// countIncoming returns how many of the first k lines land in set offset o.
func countIncoming(o, k, sets int) int {
	if o >= k {
		return 0
	}
	return (k-o-1)/sets + 1
}

func maxI32(a, b int32) int32 {
	if a > b {
		return a
	}
	return b
}

func minI32(a, b int32) int32 {
	if a < b {
		return a
	}
	return b
}

func popcount64(x uint64) int {
	n := 0
	for x != 0 {
		x &= x - 1
		n++
	}
	return n
}
