// Package cache implements a set-associative, write-back, LRU cache timing
// model. It tracks tags only (no data payload): the simulator uses it for
// the security-metadata caches — counter cache, hash cache, and MAC cache —
// whose hit/miss behaviour drives the memory-protection overhead in TNPU.
package cache

import (
	"fmt"

	"tnpu/internal/stats"
)

// Cache is a tag-only set-associative cache with true-LRU replacement and
// write-back, write-allocate policy.
type Cache struct {
	lineBytes uint64
	sets      int
	ways      int
	lineShift uint
	// setMask replaces the modulo in set selection when the set count is a
	// power of two (every realistic geometry); maskOK gates it so odd set
	// counts still work.
	setMask uint64
	maskOK  bool
	// lines[set][way]; way order is LRU order: index 0 is most recent.
	lines [][]line
	stats stats.CacheStats
}

// setIndex maps a line tag to its set.
func (c *Cache) setIndex(tag uint64) uint64 {
	if c.maskOK {
		return tag & c.setMask
	}
	return tag % uint64(c.sets)
}

type line struct {
	valid bool
	dirty bool
	tag   uint64 // full line address (byte address >> lineShift)
}

// Result describes the outcome of a single cache access.
type Result struct {
	Hit bool
	// Writeback is true when the allocation evicted a dirty line; the
	// evicted line's byte address is in WritebackAddr.
	Writeback     bool
	WritebackAddr uint64
}

// New constructs a cache of sizeBytes capacity with the given line size and
// associativity. sizeBytes must be a multiple of lineBytes*ways, and
// lineBytes must be a power of two. The name is used in error messages only.
func New(name string, sizeBytes, lineBytes, ways int) *Cache {
	if lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d is not a power of two", name, lineBytes))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cache %s: ways must be positive", name))
	}
	total := sizeBytes / lineBytes
	if total == 0 || sizeBytes%lineBytes != 0 {
		panic(fmt.Sprintf("cache %s: size %d not a positive multiple of line %d", name, sizeBytes, lineBytes))
	}
	if ways > total {
		ways = total // fully associative when capacity is tiny
	}
	sets := total / ways
	if sets*ways != total {
		panic(fmt.Sprintf("cache %s: %d lines not divisible into %d ways", name, total, ways))
	}
	shift := uint(0)
	for 1<<shift != lineBytes {
		shift++
	}
	c := &Cache{
		lineBytes: uint64(lineBytes),
		sets:      sets,
		ways:      ways,
		lineShift: shift,
		setMask:   uint64(sets - 1),
		maskOK:    sets&(sets-1) == 0,
		lines:     make([][]line, sets),
	}
	for i := range c.lines {
		c.lines[i] = make([]line, 0, ways)
	}
	return c
}

// LineBytes returns the configured line size.
func (c *Cache) LineBytes() uint64 { return c.lineBytes }

// SizeBytes returns the total capacity.
func (c *Cache) SizeBytes() int { return c.sets * c.ways * int(c.lineBytes) }

// Access looks up the line containing byte address addr, allocating it on a
// miss. write marks the line dirty. The returned Result reports whether the
// access hit and whether a dirty victim must be written back.
func (c *Cache) Access(addr uint64, write bool) Result {
	tag := addr >> c.lineShift
	set := c.lines[c.setIndex(tag)]
	c.stats.Lookups++

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			hit := set[i]
			if write {
				hit.dirty = true
			}
			// Move to front (most-recently-used).
			copy(set[1:i+1], set[:i])
			set[0] = hit
			return Result{Hit: true}
		}
	}

	c.stats.Misses++
	return c.allocate(tag, write)
}

// allocate installs tag's line at the MRU position, evicting the LRU way
// when the set is full and reporting a dirty victim for writeback.
func (c *Cache) allocate(tag uint64, write bool) Result {
	set := c.lines[c.setIndex(tag)]
	res := Result{}
	if len(set) == c.ways {
		victim := set[len(set)-1]
		c.stats.Evictions++
		if victim.dirty {
			c.stats.Writebacks++
			res.Writeback = true
			res.WritebackAddr = victim.tag << c.lineShift
		}
		set = set[:len(set)-1]
	}
	set = append(set, line{})
	copy(set[1:], set[:len(set)-1])
	set[0] = line{valid: true, dirty: write, tag: tag}
	c.lines[c.setIndex(tag)] = set
	return res
}

// AccessRun performs count consecutive demand accesses to the line holding
// addr — equivalent to calling Access(addr, write) count times with no
// intervening access to this cache. The first access runs the full
// hit/allocate path; the remaining count-1 are then guaranteed hits on the
// MRU line, which change no LRU or dirty state and only bump the Lookups
// counter. The batched protection engines use this to charge a whole
// metadata line's worth of covered blocks in one call.
func (c *Cache) AccessRun(addr, count uint64, write bool) Result {
	if count == 0 {
		return Result{Hit: true}
	}
	res := c.Access(addr, write)
	c.stats.Lookups += count - 1
	return res
}

// AddRunHits records count guaranteed-hit lookups on a just-accessed MRU
// line in closed form: such hits change no LRU or dirty state, so only the
// Lookups counter moves. This is the streak-wide bulk equivalent of the
// covered-block accounting AccessRun does per line.
func (c *Cache) AddRunHits(count uint64) { c.stats.Lookups += count }

// PeekVictim reports, without touching cache state or statistics, what an
// Access(addr, ...) would do right now: whether addr's line is resident,
// and — if it is not and the set is full — whether the would-be victim is
// dirty and at what address. The streaked baseline engine uses it to
// decide before any mutation whether a counter miss stays inside the
// closed-form charge model.
func (c *Cache) PeekVictim(addr uint64) (resident, dirtyVictim bool, victimAddr uint64) {
	tag := addr >> c.lineShift
	set := c.lines[c.setIndex(tag)]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return true, false, 0
		}
	}
	if len(set) == c.ways {
		if v := set[len(set)-1]; v.dirty {
			return false, true, v.tag << c.lineShift
		}
	}
	return false, false, 0
}

// Prefetch brings addr's line into the cache speculatively. Unlike Access
// it leaves the demand counters (Lookups/Misses) untouched, recording the
// fill under Prefetches instead, so a prefetcher ablation cannot move the
// demand miss rate. A resident line is left where it is (no LRU
// promotion, no counter change); eviction of a dirty victim is reported
// for writeback exactly as in Access.
func (c *Cache) Prefetch(addr uint64) Result {
	tag := addr >> c.lineShift
	for _, l := range c.lines[c.setIndex(tag)] {
		if l.valid && l.tag == tag {
			return Result{Hit: true}
		}
	}
	c.stats.Prefetches++
	return c.allocate(tag, false)
}

// Probe reports whether addr's line is resident without touching LRU state
// or statistics.
func (c *Cache) Probe(addr uint64) bool {
	tag := addr >> c.lineShift
	for _, l := range c.lines[c.setIndex(tag)] {
		if l.valid && l.tag == tag {
			return true
		}
	}
	return false
}

// Flush evicts every resident line and returns the byte addresses of all
// dirty lines in deterministic set order. Statistics count the writebacks.
func (c *Cache) Flush() []uint64 {
	var dirty []uint64
	for s := range c.lines {
		for _, l := range c.lines[s] {
			if l.valid && l.dirty {
				dirty = append(dirty, l.tag<<c.lineShift)
				c.stats.Writebacks++
			}
		}
		c.lines[s] = c.lines[s][:0]
	}
	return dirty
}

// Stats exposes the accumulated counters.
func (c *Cache) Stats() *stats.CacheStats { return &c.stats }
