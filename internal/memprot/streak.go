package memprot

import (
	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/stats"
)

// This file serves whole metadata-line streaks through the issue window's
// dram.RunCursor, admitted by dram.Bus.BeginRun: instead of splitting a run
// at every counter/MAC-line boundary and paying a full bus transfer plus a
// StreamRun per line, the secure schemes resolve each line (or chunk) in
// order and replay the reference path's exact charge sequence in closed
// form — data spans collapse to one aggregate charge, metadata charges
// append at the horizon, and the window ring is written once, at Commit.
// Every value the per-block model returns
// (boundary dataAt, covered-block dataAt, issue times, cache outcomes,
// traffic) is either reproduced exactly or replaced by a term proven to
// dominate it; anything the closed form cannot prove safe leaves the
// streak before touching state and is served by the retained reference
// code. DESIGN.md section 6d spells out the equivalence argument.

// streakMinBlocks gates two things. A stream shorter than it does not
// enter a streak: the per-line path's fixed costs are already small, and
// BeginRun's window scan would not pay for itself. Inside a treeless
// streak, a segment shorter than it opens its MAC lines through live
// Accesses rather than a cold cache.Sweep, whose set prescan and bulk
// commit cost more than a few live lookups.
const streakMinBlocks = 24

// streakCursor admits the next n blocks at ready to the streak path: it
// returns dram.Bus.BeginRun's primed cursor, or nil when ok is false, the
// run is shorter than streakMinBlocks, or BeginRun rejects it. perBlock
// bounds the bus charges per data block (data plus worst-case metadata).
func streakCursor(bus *dram.Bus, w *dram.IssueWindow, ok bool, ready uint64, n, perBlock int) *dram.RunCursor {
	if !ok || n < streakMinBlocks {
		return nil
	}
	return bus.BeginRun(w, ready, perBlock*n+16)
}

// --- tree-less (TNPU): the whole stream is one streak ---

// macLineCount returns how many MAC lines the run [addr, addr+n*64) covers.
// Consecutive covered MAC lines are 64B-adjacent for every slot size, so
// the count plus the first line address describe the whole streak. Block i
// maps to line (blockIdx+i)*slotBytes/64, a non-decreasing step function,
// so the count is the index gap between the run's last and first blocks.
// //tnpu:noalloc
func macLineCount(addr, slotBytes uint64, n int) int {
	blockIdx := addr / dram.BlockBytes
	first := blockIdx * slotBytes / dram.BlockBytes
	last := (blockIdx + uint64(n) - 1) * slotBytes / dram.BlockBytes
	return int(last-first) + 1
}

// beginSegment starts one segment of n blocks from addr inside a treeless
// streak. A segment of at least streakMinBlocks blocks with no resident
// MAC line takes its lines' outcomes from a cold cache sweep (cold true;
// the caller commits the nLines outcomes at the segment's end); any other
// opens each line through a live Access. It charges the segment's
// covered-block hits and data traffic. //tnpu:noalloc
func (t *treeless) beginSegment(addr uint64, n int, write bool) (nLines int, cold bool) {
	slot := t.cfg.MACSlotBytes
	nLines = macLineCount(addr, slot, n)
	cold = n >= streakMinBlocks && t.mac.BeginSweep(&t.sweep, macLineAddr(addr, slot), nLines, write)
	t.mac.AddRunHits(uint64(n - nLines))
	if write {
		t.traffic.AddWrite(stats.Data, uint64(n)*dram.BlockBytes)
	} else {
		t.traffic.AddRead(stats.Data, uint64(n)*dram.BlockBytes)
	}
	return nLines, cold
}

// readStreak is the treeless ReadRun fast path, serving the stream's
// blocks from block i on, on a run BeginRun admitted on cur. Every charge of a
// treeless read appends (data at issue times, MAC writebacks and fetches
// at the current boundary's issue time), so no mid-streak exit can occur.
// The streak walks the segments on the one cursor, and the pending data
// span carries across segment ends: on one channel a data charge is the
// same wherever its address lies. Each segment resolves its MAC lines as
// beginSegment decides: through a cold cache sweep, whose capacity prefix
// walks per line and whose steady-state tail collapses to one periodic
// charge, or through a live Access per line.
// //tnpu:noalloc
func (t *treeless) readStreak(ready uint64, s *Stream, i int, cur *dram.RunCursor) (nextReady, maxDataAt uint64) {
	c, n := s.cursor(), s.Left
	lat := t.cfg.Bus.Latency()
	slot := t.cfg.MACSlotBytes
	r := ready
	pending := 0 // contiguous data blocks awaiting one span charge
	for i < n {
		addr, nb := c.at(i)
		nLines, cold := t.beginSegment(addr, nb, false)
		// Cold segments: every line misses, so a line's whole charge pattern
		// is [span(mFull), writeback?, fetch] — determined by its victim's
		// dirty bit alone. Consecutive full-coverage lines of one writeback
		// class repeat that pattern verbatim and collapse through
		// DataPeriodic. Only meaningful when the slot size tiles the line
		// (full lines then all cover mFull blocks and start block-aligned);
		// past the sweep's uniform boundary the class is known to be clean
		// without scanning.
		mFull, uniform := 0, nLines
		if cold && dram.BlockBytes%slot == 0 {
			mFull = int(dram.BlockBytes / slot)
			uniform = t.sweep.UniformFrom()
		}
		li := 0
		for j := 0; j < nb; li++ {
			a := addr + uint64(j)*dram.BlockBytes
			// pending == mFull-1 makes the first period's span exactly mFull
			// blocks, and a line-aligned start makes every line of the stretch
			// a full one. Inside a cold segment the previous line's full miss
			// implies the alignment; pending carried over a segment end does
			// not, so it is checked.
			if mFull > 0 && pending == mFull-1 && (a/dram.BlockBytes)%uint64(mFull) == 0 {
				if P := (nb - j) / mFull; P >= 2 {
					wb := t.sweep.Outcome(li).Writeback
					p := 1
					for p < P {
						if !wb && li+p >= uniform {
							p = P // self-evicting tail: clean for the whole segment
							break
						}
						if t.sweep.Outcome(li+p).Writeback != wb {
							break
						}
						p++
					}
					trail := 1
					if wb {
						trail = 2 // victim writeback precedes the fetch
					}
					if p >= 2 {
						if lastFree, _, nr, ok := cur.DataPeriodic(r, p, mFull, trail); ok {
							t.traffic.AddRead(stats.MAC, uint64(p)*dram.BlockBytes)
							if wb {
								t.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
							}
							// Arrival and MAC-fetch terms both grow per period,
							// so the final line dominates the stretch; the fetch
							// is each period's last charge, so the final macAt
							// is the horizon plus the bus latency.
							macAt := cur.Horizon() + lat
							if d := max64(lastFree+lat+t.cfg.XTSCycles, macAt) + t.cfg.MACCycles; d > maxDataAt {
								maxDataAt = d
							}
							r = nr
							j += p * mFull
							li += p - 1
							continue
						}
					}
				}
			}
			m := minInt(macRunLen(a, slot), nb-j)
			var res cache.Result
			if cold {
				res = t.sweep.Outcome(li)
			} else {
				res = t.mac.Access(macLineAddr(a, slot), false)
			}
			if res.Hit {
				// Its MAC resolves at the issue time, dominated by the
				// data-arrival term, so the whole line is deferred data.
				pending += m
				j += m
				continue
			}
			// Charge order matches ReadBlock: boundary data, MAC writeback, MAC
			// fetch, covered data — so the pending span plus this boundary
			// flush first.
			lastFree, _, nr := cur.Data(r, pending+1)
			r = nr
			if res.Writeback {
				t.traffic.AddWrite(stats.MAC, dram.BlockBytes)
				cur.Meta(1)
			}
			t.traffic.AddRead(stats.MAC, dram.BlockBytes)
			macAt := cur.Meta(1) + lat
			if d := max64(lastFree+lat+t.cfg.XTSCycles, macAt) + t.cfg.MACCycles; d > maxDataAt {
				maxDataAt = d
			}
			pending = m - 1
			j += m
		}
		if cold {
			t.sweep.CommitPrefix(nLines)
		}
		i += nb
	}
	if pending > 0 {
		lastFree, _, nr := cur.Data(r, pending)
		r = nr
		if d := lastFree + lat + t.cfg.XTSCycles + t.cfg.MACCycles; d > maxDataAt {
			maxDataAt = d
		}
	}
	cur.Commit()
	return r, maxDataAt
}

// writeStreak is the treeless WriteRun fast path, serving the stream's
// blocks from block i on, on cur: MAC updates are write-validated (no fetch), so
// the only metadata charges are dirty MAC writebacks, each preceding its
// line's boundary data block. Segments and their lines resolve as in
// readStreak.
// //tnpu:noalloc
func (t *treeless) writeStreak(ready uint64, s *Stream, i int, cur *dram.RunCursor) (nextReady, maxDataAt uint64) {
	c, n := s.cursor(), s.Left
	slot := t.cfg.MACSlotBytes
	r := ready
	pending := 0
	for i < n {
		addr, nb := c.at(i)
		nLines, cold := t.beginSegment(addr, nb, true)
		// Cold segments (see readStreak): every line misses, and on the write
		// path a miss charges only its victim's writeback — so a stretch of
		// clean misses folds into the pending span for free, and a stretch of
		// dirty misses repeats [span(mFull), writeback] and collapses
		// through DataPeriodic.
		mFull, uniform := 0, nLines
		if cold && dram.BlockBytes%slot == 0 {
			mFull = int(dram.BlockBytes / slot)
			uniform = t.sweep.UniformFrom()
		}
		li := 0
		for j := 0; j < nb; li++ {
			a := addr + uint64(j)*dram.BlockBytes
			if mFull > 0 {
				if P := (nb - j) / mFull; P >= 2 && (a/dram.BlockBytes)%uint64(mFull) == 0 {
					wb := t.sweep.Outcome(li).Writeback
					p := 1
					for p < P {
						if wb && li+p >= uniform {
							p = P // self-evicting tail: dirty for the whole segment
							break
						}
						if t.sweep.Outcome(li+p).Writeback != wb {
							break
						}
						p++
					}
					if !wb {
						// Clean misses charge nothing on the write-validated
						// path: the whole stretch folds into the pending span.
						pending += p * mFull
						j += p * mFull
						li += p - 1
						continue
					}
					// pending == mFull makes each period's span exactly mFull
					// blocks, the shape DataPeriodic repeats.
					if p >= 2 && pending == mFull {
						if _, _, nr, ok := cur.DataPeriodic(r, p, mFull, 1); ok {
							t.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
							r = nr
							j += p * mFull
							li += p - 1
							continue
						}
					}
				}
			}
			m := minInt(macRunLen(a, slot), nb-j)
			var res cache.Result
			if cold {
				res = t.sweep.Outcome(li)
			} else {
				res = t.mac.Access(macLineAddr(a, slot), true)
			}
			if res.Writeback {
				if pending > 0 {
					_, _, r = cur.Data(r, pending)
				}
				t.traffic.AddWrite(stats.MAC, dram.BlockBytes)
				cur.Meta(1)
				pending = m
			} else {
				pending += m
			}
			j += m
		}
		if cold {
			t.sweep.CommitPrefix(nLines)
		}
		i += nb
	}
	// Writes complete at their bus-clear time; the stream's last charge is
	// always a data block, so its clear dominates every earlier one.
	lastFree, _, nr := cur.Data(r, pending)
	cur.Commit()
	return nr, lastFree
}

// --- baseline (tree-based): chunk-wise streaks with reference fallback ---

// ctrSimple reports whether serving the counter access for the block at
// addr can stay inside the streak: every bus charge it triggers must
// append at the horizon and every cache mutation must be one the streak
// model predicts. Probes only — a false verdict leaves all state untouched
// and hands the chunk to the reference path. rLow is a lower bound on the
// boundary's issue time (MSHR gating only gets easier as it grows). //tnpu:noalloc
func (b *baseline) ctrSimple(addr, rLow uint64) bool {
	lineIdx, _ := b.geo.CounterIndex(addr / dram.BlockBytes)
	resident, dirtyVictim, victim := b.counter.PeekVictim(b.geo.NodeAddr(0, lineIdx))
	if resident {
		return true
	}
	if b.cfg.CounterPrefetch {
		// The next-line prefetch fill lands at walk completion — past the
		// horizon, where the reference opens an idle gap.
		return false
	}
	minFree := b.walkFree[0]
	for _, f := range b.walkFree[1:] {
		if f < minFree {
			minFree = f
		}
	}
	if minFree > rLow {
		// All MSHRs busy: the walk would start after the boundary issues.
		return false
	}
	if b.geo.Levels() > 1 {
		// The walk must end at a resident level-1 ancestor, and a dirty
		// victim's lazy version bump must hit its parent in the hash cache —
		// a miss there could allocate over the ancestor just probed.
		pIdx, _ := b.geo.Parent(lineIdx)
		if !b.hash.Probe(b.geo.NodeAddr(1, pIdx)) {
			return false
		}
		if dirtyVictim {
			vIdx := (victim - integrity.CounterBase) / integrity.NodeBytes
			vp, _ := b.geo.Parent(vIdx)
			if !b.hash.Probe(b.geo.NodeAddr(1, vp)) {
				return false
			}
		}
	}
	return true
}

// ctrStreakAccess is counterAccess for a whole counter line inside a
// streak: one access, with the line's other count-1 blocks charged as
// hits through the run's end. The chunk was pre-classified by ctrSimple,
// so a miss's walk is exactly one counter fetch verified against a
// resident level-1 ancestor, on a free MSHR, with any dirty-victim
// writeback absorbed by a resident hash parent. //tnpu:noalloc
func (b *baseline) ctrStreakAccess(cur *dram.RunCursor, rB, addr, count uint64, write bool) uint64 {
	lineIdx, _ := b.geo.CounterIndex(addr / dram.BlockBytes)
	res := b.counter.Access(b.geo.NodeAddr(0, lineIdx), write)
	b.counter.AddRunHits(count - 1)
	if res.Writeback {
		b.traffic.AddWrite(stats.Counter, dram.BlockBytes)
		cur.Meta(1)
		b.touchParent(rB, res.WritebackAddr, 0) // hash-cache hit: no charge
	}
	if res.Hit {
		return rB
	}
	slot := 0
	for i, f := range b.walkFree {
		if f < b.walkFree[slot] {
			slot = i
		}
	}
	b.traffic.AddRead(stats.Counter, dram.BlockBytes)
	done := cur.Meta(1) + b.cfg.Bus.Latency()
	if b.geo.Levels() > 1 {
		pIdx, _ := b.geo.Parent(lineIdx)
		b.hash.Access(b.geo.NodeAddr(1, pIdx), false) // resident: hit, no writeback
	}
	b.walkFree[slot] = done
	return done
}

// macStreakAccess is macAccess for a whole MAC line inside a streak: one
// access, with the line's other count-1 blocks charged as hits through
// the run's end. Every MAC outcome is append-safe (writeback and fetch
// both charge at the boundary's issue time, and the MAC cache never
// cascades), so no pre-classification is needed. //tnpu:noalloc
func (b *baseline) macStreakAccess(cur *dram.RunCursor, rB, addr, count uint64, write bool) uint64 {
	res := b.mac.Access(macLineAddr(addr, b.cfg.MACSlotBytes), write)
	b.mac.AddRunHits(count - 1)
	return b.macStreakCharge(cur, rB, count, res, write)
}

// beginMacSweep prescans the MAC lines a baseline streak will touch from
// block `from` (a MAC-line boundary) to the end of the run. When none is
// resident, every remaining boundary's outcome is served from the cold
// sweep in consumption order (macSweepAccess) and applied in bulk when the
// streak commits or exits; otherwise it reports false and the streak opens
// each line through the live macStreakAccess. Nothing else touches the MAC
// cache while a baseline streak is active, so the sweep's untouched-between
// invariant holds. //tnpu:noalloc
func (b *baseline) beginMacSweep(addr uint64, from, n int, write bool) bool {
	if from >= n {
		return false
	}
	a := addr + uint64(from)*dram.BlockBytes
	lines := macLineCount(a, b.cfg.MACSlotBytes, n-from)
	return b.mac.BeginSweep(&b.sweep, macLineAddr(a, b.cfg.MACSlotBytes), lines, write)
}

// macSweepAccess is macStreakAccess with the line's outcome supplied by an
// active cold cache.Sweep instead of a live access: the sweep's
// CommitPrefix applies the lookup, allocation, and eviction in bulk later,
// so only the charges and traffic happen here. //tnpu:noalloc
func (b *baseline) macSweepAccess(cur *dram.RunCursor, rB, count uint64, res cache.Result, write bool) uint64 {
	b.mac.AddRunHits(count - 1)
	return b.macStreakCharge(cur, rB, count, res, write)
}

// macStreakCharge applies one MAC-line outcome's traffic and charges. //tnpu:noalloc
func (b *baseline) macStreakCharge(cur *dram.RunCursor, rB, count uint64, res cache.Result, write bool) uint64 {
	if res.Writeback {
		b.traffic.AddWrite(stats.MAC, dram.BlockBytes)
		cur.Meta(1)
	}
	if res.Hit {
		return rB
	}
	b.traffic.AddRead(stats.MAC, dram.BlockBytes)
	at := cur.Meta(1)
	if write {
		return rB // RMW fill behind the store buffer
	}
	return at + b.cfg.Bus.Latency()
}

// chunkStretch scans forward from chunk start i (a MAC-aligned, fully
// covered chunk) for consecutive full chunks whose cold-sweep MAC outcomes
// all share out0's writeback class and whose counter-line boundaries are
// all resident — a stretch whose charge sequence repeats one period and
// collapses through DataPeriodic. Probes only: a result below 2 leaves all
// state untouched and the caller proceeds chunk-by-chunk. Requires the
// counter arity to be a whole number of chunks so every boundary lands on
// a chunk start. //tnpu:noalloc
func (b *baseline) chunkStretch(addr uint64, i, n, sweepLi, mFull int, out0 cache.Result, write bool) int {
	arity := b.cfg.TreeArity
	blockIdx := addr/dram.BlockBytes + uint64(i)
	limit := (n - i) / mFull
	// Chunk index (relative to the stretch) where the cold sweep turns into
	// pure self-evicting turnover; beyond it outcomes need no scanning.
	uniform := limit
	if u := b.sweep.UniformFrom() - sweepLi; u < limit {
		uniform = max(u, 0)
	}
	p := 0
	for p < uniform { // varied prefix: check every chunk's outcome
		bi := blockIdx + uint64(p*mFull)
		if bi%arity == 0 && !b.ctrResident(bi) {
			return p
		}
		if b.sweep.Outcome(sweepLi+p).Writeback != out0.Writeback {
			return p
		}
		p++
	}
	if out0.Writeback != write {
		// The steady-state class is a self-evicting miss, dirty exactly when
		// the sweep writes; a different class ends at the boundary.
		return p
	}
	for p < limit { // uniform tail: only counter boundaries need probing
		bi := blockIdx + uint64(p*mFull)
		if bi%arity == 0 && !b.ctrResident(bi) {
			return p
		}
		hop := int(arity-bi%arity) / mFull // chunks to the next counter boundary
		if p+hop > limit {
			return limit
		}
		p += hop
	}
	return p
}

// ctrResident probes (without touching) the level-0 counter line covering
// block bi. //tnpu:noalloc
func (b *baseline) ctrResident(bi uint64) bool {
	lineIdx, _ := b.geo.CounterIndex(bi)
	return b.counter.Probe(b.geo.NodeAddr(0, lineIdx))
}

// ctrStretchHits replays the counter accesses a collapsed stretch covers:
// chunkStretch proved every boundary resident, so each is a plain hit
// serving min(arity, n-ci) blocks, charge-free on the bus. //tnpu:noalloc
func (b *baseline) ctrStretchHits(addr uint64, i, p, mFull, n int, write bool) {
	arity := b.cfg.TreeArity
	blockIdx := addr/dram.BlockBytes + uint64(i)
	for q := 0; q < p; q++ {
		bi := blockIdx + uint64(q*mFull)
		if bi%arity != 0 {
			continue
		}
		lineIdx, _ := b.geo.CounterIndex(bi)
		b.counter.Access(b.geo.NodeAddr(0, lineIdx), write)
		b.counter.AddRunHits(uint64(minInt(int(arity), n-(i+q*mFull))) - 1)
	}
}

// minorStretchBump applies the per-block minor-counter increments of a
// collapsed write stretch; overflowPending already certified no wraps.
func (b *baseline) minorStretchBump(addr uint64, i, blocks int) {
	blockIdx := addr/dram.BlockBytes + uint64(i)
	for k := 0; k < blocks; {
		lineIdx, slot := b.geo.CounterIndex(blockIdx + uint64(k))
		minorLine := b.minorLineOf(lineIdx)
		cnt := minInt(blocks-k, int(b.cfg.TreeArity)-slot)
		for j := 0; j < cnt; j++ {
			minorLine[slot+j]++
		}
		k += cnt
	}
}
