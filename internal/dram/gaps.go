package dram

import "math/bits"

// This file is the channel's remembered idle-gap list and its first-fit
// index. The list semantics are the model (DESIGN.md §6b): idle [start,end)
// windows behind the horizon, oldest first, at most maxGaps of them, the
// oldest evicted to record a new one, and a charge backfilled into the
// FIRST gap in list order that can hold it. A backfill that splits a gap
// keeps the earlier half in place and appends the later half at the end
// (dropped at capacity), so list order is not time order.
//
// The index only changes how that first gap is found. A charge of c cycles
// presented at ready fits gap g iff
//
//	max(ready, g.start) + c <= g.end  <=>  g.end-g.start >= c  &&  g.end >= ready+c
//
// so a gap shorter than c can never hold the charge, whatever the ready
// time. Two bitmasks over list positions mark the gaps of length >= bq and
// >= bq+1, bq being the channel's whole cycles per block; a search visits,
// lowest position first, only the gaps the charge's length class admits
// and returns the first that passes both tests — the gap the list scan
// returns, because every skipped position is one the scan would reject on
// length. A one-block charge (bq or bq+1 cycles) visits only gaps long
// enough to hold it. Nothing else changes: the sub-bq fragments the masks
// skip stay in the list, keep their slots and age out by eviction exactly
// as before, since dropping them would change which gap a later eviction
// removes and therefore cycles. FuzzGapIndexVsScan pins the index against
// a test-only copy of the list scan.

type gap struct{ start, end uint64 }

// maxGaps bounds the remembered idle windows; older gaps are forgotten
// (slightly pessimistic, never optimistic). It is also the width of the
// index masks.
const maxGaps = 64

// gapList is a channel's remembered idle windows and their index. The
// methods that maintain it are on channel, whose bq the length classes are
// measured against.
type gapList struct {
	// gaps is the list, oldest first.
	gaps []gap
	// fitQ and fitQ1 have bit i set iff gaps[i] is at least bq or bq+1
	// cycles long.
	fitQ, fitQ1 uint64
	// maxGapEnd is an upper bound on the end of every remembered gap
	// (never below the true maximum, so requests with ready >= maxGapEnd
	// can skip the gap search: any such request starts at or after every
	// gap's end and cannot fit inside one).
	maxGapEnd uint64
}

// gapClass returns g's length-class bits for list position i.
func (c *channel) gapClass(g gap, i int) (q, q1 uint64) {
	if n := g.end - g.start; n >= c.bq {
		q = 1 << i
		if n > c.bq {
			q1 = q
		}
	}
	return q, q1
}

// reclassGap recomputes position i's mask bits after its gap shrank.
func (c *channel) reclassGap(i int) {
	q, q1 := c.gapClass(c.gaps[i], i)
	others := ^uint64(1 << i)
	c.fitQ = c.fitQ&others | q
	c.fitQ1 = c.fitQ1&others | q1
}

// pushGap appends g at the end of the list, which must have room.
func (c *channel) pushGap(g gap) {
	q, q1 := c.gapClass(g, len(c.gaps))
	c.gaps = append(c.gaps, g)
	c.fitQ |= q
	c.fitQ1 |= q1
}

// recordGap remembers the idle window [start, end), evicting the oldest
// entry at capacity and maintaining the gap-end upper bound.
func (c *channel) recordGap(start, end uint64) {
	if len(c.gaps) == maxGaps {
		c.gaps = c.gaps[1:]
		c.fitQ >>= 1
		c.fitQ1 >>= 1
	}
	c.pushGap(gap{start, end})
	if end > c.maxGapEnd {
		c.maxGapEnd = end
	}
}

// removeGap deletes position i, closing up the later positions.
func (c *channel) removeGap(i int) {
	c.gaps = append(c.gaps[:i], c.gaps[i+1:]...)
	low := uint64(1)<<i - 1
	c.fitQ = c.fitQ&low | c.fitQ>>1&^low
	c.fitQ1 = c.fitQ1&low | c.fitQ1>>1&^low
}

// fitGap returns the list position of the first gap that can hold a
// charge of cycles presented at ready, or -1. It visits every position for
// a charge shorter than bq, the gaps of at least bq cycles for a bq-cycle
// charge, and those of at least bq+1 for a longer one. Keep it within the
// compiler's inlining budget (go build -gcflags=-m): transfer, the
// per-block path, calls it on every backfill attempt.
func (c *channel) fitGap(ready, cycles uint64) int {
	cand := c.fitQ1
	if cycles == c.bq {
		cand = c.fitQ
	} else if cycles < c.bq {
		cand = uint64(1)<<len(c.gaps) - 1
	}
	for ; cand != 0; cand &= cand - 1 {
		i := bits.TrailingZeros64(cand)
		if g := c.gaps[i]; g.end >= ready+cycles && g.end-g.start >= cycles {
			return i
		}
	}
	return -1
}

// takeGap serves a charge of cycles presented at ready inside gap i, which
// must fit it, and returns its clear time.
func (c *channel) takeGap(i int, ready, cycles uint64) (end uint64) {
	g := &c.gaps[i]
	start := ready
	if g.start > start {
		start = g.start
	}
	end = start + cycles
	switch {
	case start == g.start && end == g.end:
		c.removeGap(i)
	case start == g.start:
		g.start = end
		c.reclassGap(i)
	case end == g.end:
		g.end = start
		c.reclassGap(i)
	default:
		// Split: keep the earlier half here, append the later.
		later := gap{end, g.end}
		g.end = start
		c.reclassGap(i)
		if len(c.gaps) < maxGaps {
			c.pushGap(later)
		}
	}
	return end
}

// holdsBlock reports whether some remembered gap can hold a minimum-cost
// (bq-cycle) block presented at ready.
func (c *channel) holdsBlock(ready uint64) bool {
	return ready < c.maxGapEnd && c.fitGap(ready, c.bq) >= 0
}
