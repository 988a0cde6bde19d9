package memprot

import (
	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/stats"
)

// RunEngine is the optional batched fast path of a protection engine:
// serve up to nBlocks consecutive data blocks in one call, gated by the
// caller's DMA issue window and stopped by the arbitration horizon, with
// bus state, cache state, statistics, and returned times identical to
// pushing the same blocks through ReadBlock/WriteBlock one at a time:
//
//	for i := 0; i < nBlocks; i++ {
//	    busFree, dataAt := e.ReadBlock(ready, addr+uint64(i)*dram.BlockBytes, version)
//	    maxDataAt = max(maxDataAt, dataAt)
//	    ready = w.Issue(ready, busFree)
//	    if ready >= horizon { break } // served = i+1
//	}
//
// The stop is exact: the call serves blocks until one's next issue time
// reaches horizon (the earliest cycle a co-tenant can be ready) and reports
// how many it served. An uncontended run passes dram.NoHorizon and always
// serves nBlocks. The batching exploits the same regularity TNPU's
// hardware does: a streaming DMA touches each metadata line once and then
// hits it for every remaining covered block, so only line-boundary blocks
// need the full model. It is an optional interface so engine wrappers
// (e.g. the attack harness) transparently keep the per-block path.
type RunEngine interface {
	ReadRun(ready, addr, version uint64, nBlocks int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int)
	WriteRun(ready, addr, version uint64, nBlocks int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int)
}

// runPerBlock is the reference fallback: the per-block engine path under
// the caller's issue window, used whenever a scheme cannot batch safely.
func runPerBlock(e Engine, read bool, ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	r := ready
	for served < n {
		a := addr + uint64(served)*dram.BlockBytes
		var busFree, dataAt uint64
		if read {
			busFree, dataAt = e.ReadBlock(r, a, version)
		} else {
			busFree, dataAt = e.WriteBlock(r, a, version)
		}
		if dataAt > maxDataAt {
			maxDataAt = dataAt
		}
		r = w.Issue(r, busFree)
		if served++; r >= horizon {
			break
		}
	}
	return r, maxDataAt, served
}

// macRunLen returns how many consecutive blocks starting at addr share
// addr's MAC line: with slotBytes of MAC per block, block i's slot lives in
// line (i*slotBytes)/64, a non-decreasing step function of i. Works for
// any slot size, including ones that do not divide the line.
func macRunLen(addr, slotBytes uint64) int {
	blockIdx := addr / dram.BlockBytes
	off := blockIdx * slotBytes
	lineEnd := (off/dram.BlockBytes + 1) * dram.BlockBytes
	return int((lineEnd - off + slotBytes - 1) / slotBytes)
}

// lineHits is a per-line body's account of the guaranteed hits it owes one
// open metadata line: every block after the line's opening access hits it
// (nothing else touches that cache within the call), so the hits are
// charged in bulk once the served count is known — a horizon stop may cut
// the line short. The first charged hit is a real access, which re-promotes
// the line over a next-line prefetch fill exactly as the reference's first
// covered hit does. pre marks a line whose hits through the end of the run
// were charged up front (a streak opened it, or the body is handing the
// rest of the line to a streak).
type lineHits struct {
	c     *cache.Cache
	addr  uint64
	owed  uint64
	write bool
	pre   bool
}

// open charges the previous line's hits; the caller then performs the new
// line's full access.
func (h *lineHits) open(addr uint64) {
	h.flush()
	h.addr, h.pre = addr, false
}

// serve records a chunk served on the open line: its covered blocks, plus
// the boundary block when the chunk did not open the line.
func (h *lineHits) serve(opened bool, covered int) {
	if h.pre {
		return
	}
	h.owed += uint64(covered)
	if !opened {
		h.owed++
	}
}

// prepay charges the open line's remaining rest blocks now, for a streak
// that takes over mid-line and never charges them itself.
func (h *lineHits) prepay(rest int) {
	if !h.pre {
		h.owed += uint64(rest)
	}
	h.flush()
	h.pre = true
}

func (h *lineHits) flush() {
	if h.owed > 0 {
		h.c.AccessRun(h.addr, h.owed, h.write)
		h.owed = 0
	}
}

// batchSafe reports whether the guaranteed-hit reasoning holds for the
// baseline's counter cache: a next-line prefetch into a single-line cache
// evicts the demand line itself, breaking the "covered blocks hit" chunk
// invariant. Every realistic configuration is safe.
//
//tnpu:pure
func (b *baseline) batchSafe() bool {
	return !b.cfg.CounterPrefetch || b.cfg.CounterCacheBytes > dram.BlockBytes
}

// --- unsecure / encrypt-only: pure bandwidth arithmetic ---

// ReadRun serves a read run as one bus stream. //tnpu:noalloc
// //tnpu:exactform one StreamRun is the model itself, not an approximation of a per-block loop
func (u *unsecure) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, _, k := u.cfg.Bus.StreamRun(ready, addr, n, w, horizon)
	u.traffic.AddRead(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree + u.cfg.Bus.Latency(), k
}

// WriteRun serves a write run as one bus stream. //tnpu:noalloc
// //tnpu:exactform one StreamRun is the model itself, not an approximation of a per-block loop
func (u *unsecure) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, _, k := u.cfg.Bus.StreamRun(ready, addr, n, w, horizon)
	u.traffic.AddWrite(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree, k
}

// ReadRun streams the run and tacks the XTS pipe onto arrival. //tnpu:noalloc
// //tnpu:exactform stream plus fixed XTS latency is the model itself, exact for every run
func (e *encryptOnly) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, _, k := e.cfg.Bus.StreamRun(ready, addr, n, w, horizon)
	e.traffic.AddRead(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree + e.cfg.Bus.Latency() + e.cfg.XTSCycles, k
}

// WriteRun streams the run; encryption overlaps issue. //tnpu:noalloc
// //tnpu:exactform stream with overlapped encryption is the model itself, exact for every run
func (e *encryptOnly) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, _, k := e.cfg.Bus.StreamRun(ready, addr, n, w, horizon)
	e.traffic.AddWrite(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree, k
}

// --- tree-less (TNPU): batches whole MAC-line streaks ---

// Long uncontended runs on a single channel are served as one streak
// (streak.go): every MAC-line outcome is resolved in one cache walk and the
// reference charge sequence replays through the issue window's
// dram.RunCursor in closed form, admitted by the dram.Bus.BeginRun guard.
// The per-line loop below serves everything else — contended runs stopped
// at a horizon, short runs, multi-channel buses, and configurations where
// the append invariant is unprovable: each MAC line's first block takes
// the full per-block path and its covered blocks stream as pure bus
// arithmetic.

// ReadRun batches MAC-line streaks of the read run. //tnpu:noalloc
func (t *treeless) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	unbounded := horizon == dram.NoHorizon
	if unbounded && n >= streakMinBlocks && t.cfg.Bus.BeginRun(w, ready, 3*n+16) {
		nr, d := t.readStreak(ready, addr, n, w)
		return nr, d, n
	}
	r := ready
	lat := t.cfg.Bus.Latency()
	i := 0
	for i < n {
		// A rejected run usually failed on a remembered idle gap; gaps are
		// consumed (or overtaken) as the run's own blocks land, so retry
		// the streak for the remaining lines.
		if i > 0 && unbounded && n-i >= streakMinBlocks && t.cfg.Bus.BeginRun(w, r, 3*(n-i)+16) {
			nr, d := t.readStreak(r, addr+uint64(i)*dram.BlockBytes, n-i, w)
			return nr, max64(maxDataAt, d), n
		}
		a := addr + uint64(i)*dram.BlockBytes
		busFree, dataAt := t.ReadBlock(r, a, version)
		if dataAt > maxDataAt {
			maxDataAt = dataAt
		}
		r = w.Issue(r, busFree)
		i++
		// Covered blocks: the MAC hit resolves at the issue time, which the
		// data-arrival term always dominates, leaving pure bus arithmetic.
		if m := minInt(macRunLen(a, t.cfg.MACSlotBytes), n-i+1); m > 1 && r < horizon {
			nr, maxFree, _, k := t.cfg.Bus.StreamRun(r, a+dram.BlockBytes, m-1, w, horizon)
			t.traffic.AddRead(stats.Data, uint64(k)*dram.BlockBytes)
			t.mac.AccessRun(macLineAddr(a, t.cfg.MACSlotBytes), uint64(k), false)
			r = nr
			if d := maxFree + lat + t.cfg.XTSCycles + t.cfg.MACCycles; d > maxDataAt {
				maxDataAt = d
			}
			i += k
		}
		if r >= horizon {
			break
		}
	}
	return r, maxDataAt, i
}

// WriteRun batches MAC-line streaks of the write run. //tnpu:noalloc
func (t *treeless) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	unbounded := horizon == dram.NoHorizon
	if unbounded && n >= streakMinBlocks && t.cfg.Bus.BeginRun(w, ready, 3*n+16) {
		nr, d := t.writeStreak(ready, addr, n, w)
		return nr, d, n
	}
	r := ready
	i := 0
	for i < n {
		// See ReadRun: retry the streak once the rejecting gap is behind.
		if i > 0 && unbounded && n-i >= streakMinBlocks && t.cfg.Bus.BeginRun(w, r, 3*(n-i)+16) {
			nr, d := t.writeStreak(r, addr+uint64(i)*dram.BlockBytes, n-i, w)
			return nr, max64(maxDataAt, d), n
		}
		a := addr + uint64(i)*dram.BlockBytes
		busFree, _ := t.WriteBlock(r, a, version)
		if busFree > maxDataAt {
			maxDataAt = busFree
		}
		r = w.Issue(r, busFree)
		i++
		if m := minInt(macRunLen(a, t.cfg.MACSlotBytes), n-i+1); m > 1 && r < horizon {
			nr, maxFree, _, k := t.cfg.Bus.StreamRun(r, a+dram.BlockBytes, m-1, w, horizon)
			t.traffic.AddWrite(stats.Data, uint64(k)*dram.BlockBytes)
			t.mac.AccessRun(macLineAddr(a, t.cfg.MACSlotBytes), uint64(k), true)
			r = nr
			if maxFree > maxDataAt {
				maxDataAt = maxFree
			}
			i += k
		}
		if r >= horizon {
			break
		}
	}
	return r, maxDataAt, i
}

// --- baseline (tree-based): batches at counter-line granularity, with
// MAC-line boundaries as sub-events (the two need not nest for ablation
// arity/slot combinations, so the loop walks boundary events generically).
// Long single-channel runs additionally stream chunk sequences through a
// RunCursor (streak.go): chunks whose counter access ctrSimple can prove
// append-safe replay in closed form, and any other chunk drops out of the
// streak — before touching state — onto the reference body below, rejoining
// afterwards when enough blocks remain.

// ReadRun batches counter-line chunks of the read run. //tnpu:noalloc
func (b *baseline) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	if !b.batchSafe() {
		return runPerBlock(b, true, ready, addr, version, n, w, horizon)
	}
	arity := b.cfg.TreeArity
	lat := b.cfg.Bus.Latency()
	r := ready
	nextCtr, nextMac := 0, 0
	var ctrCount, macCount uint64
	ctrHits, macHits := lineHits{c: b.counter}, lineHits{c: b.mac}
	cur := w.Cursor()
	unbounded := horizon == dram.NoHorizon
	inStreak := unbounded && n >= streakMinBlocks && b.cfg.Bus.BeginRun(w, r, 5*n+16)
	macSwept := inStreak && b.beginMacSweep(addr, 0, n, false)
	sweepLi := 0 // MAC-line outcomes consumed from the active sweep
	pending := 0 // deferred data blocks awaiting one streak span charge
	// Chunk-stretch collapse is valid when the MAC slot tiles the line and
	// counter boundaries land on chunk starts (see chunkStretch).
	mFull := 0
	if dram.BlockBytes%b.cfg.MACSlotBytes == 0 {
		if m := int(dram.BlockBytes / b.cfg.MACSlotBytes); arity%uint64(m) == 0 {
			mFull = m
		}
	}
	i := 0
	for i < n {
		a := addr + uint64(i)*dram.BlockBytes
		blockIdx := a / dram.BlockBytes
		isCtr := i == nextCtr
		isMac := i == nextMac
		if isCtr {
			cm := int(arity - blockIdx%arity)
			ctrCount = uint64(minInt(cm, n-i))
			nextCtr = i + cm
		}
		if isMac {
			mm := macRunLen(a, b.cfg.MACSlotBytes)
			macCount = uint64(minInt(mm, n-i))
			nextMac = i + mm
		}
		chunkEnd := minInt(minInt(nextCtr, nextMac), n)
		if inStreak && isCtr && !b.ctrSimple(a, r) {
			// A counter access the closed form cannot serve (multi-level
			// walk, busy MSHRs, prefetch fill, or an unsafe eviction
			// cascade): flush the pending span, commit the consumed sweep
			// prefix, and fall back to the reference path for this chunk —
			// no state was touched yet.
			if macSwept {
				b.sweep.CommitPrefix(sweepLi)
				macSwept = false
			}
			if pending > 0 {
				lastFree, lastIssue, nr := cur.Data(r, pending)
				r = nr
				if d := max64(lastFree+lat, lastIssue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles; d > maxDataAt {
					maxDataAt = d
				}
				pending = 0
			}
			cur.Commit()
			inStreak = false
			// The streak charged its open lines' hits through the run's end.
			ctrHits.pre, macHits.pre = true, true
		}
		if inStreak && macSwept && mFull > 0 && isMac && pending == mFull-1 && chunkEnd == i+mFull &&
			b.ctrStretchEntryOK(blockIdx, isCtr) {
			// Stretch of full chunks in one MAC outcome class with resident
			// counters: every chunk charges [span(mFull), MAC metadata] with
			// the counter access free, so the whole stretch is one periodic
			// span (or one plain span when the class is hit). Arrival, issue,
			// and MAC-fetch terms all grow per chunk, so the final chunk
			// dominates the stretch's dataAt.
			out0 := b.sweep.Outcome(sweepLi)
			if p := b.chunkStretch(addr, i, n, sweepLi, mFull, out0, false); p >= 2 {
				trail := 0
				if out0.Writeback {
					trail++
				}
				if !out0.Hit {
					trail++
				}
				var lastFree, lastIssue, nr uint64
				ok := true
				if trail == 0 {
					lastFree, lastIssue, nr = cur.Data(r, p*mFull)
				} else {
					lastFree, lastIssue, nr, ok = cur.DataPeriodic(r, p, mFull, 0, trail)
				}
				if ok {
					b.traffic.AddRead(stats.Data, uint64(p*mFull)*dram.BlockBytes)
					if out0.Writeback {
						b.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
					}
					macAt := lastIssue
					if !out0.Hit {
						b.traffic.AddRead(stats.MAC, uint64(p)*dram.BlockBytes)
						// The fetch is each period's last charge, so the final
						// macAt is the horizon plus the bus latency.
						macAt = cur.Horizon() + lat
					}
					b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
					if isCtr && blockIdx%arity != 0 {
						b.ctrPartialHit(blockIdx, ctrCount, false)
					}
					b.ctrStretchHits(addr, i, p, mFull, n, false)
					dataAt := max64(lastFree+lat, lastIssue+b.cfg.OTPCycles)
					dataAt = max64(dataAt+b.cfg.XORCycles, macAt) + b.cfg.MACCycles
					if dataAt > maxDataAt {
						maxDataAt = dataAt
					}
					r = nr
					sweepLi += p
					i += p * mFull
					nextMac = i
					for nextCtr < i {
						nextCtr += int(arity)
					}
					continue
				}
			}
		}
		if inStreak {
			// Streak chunk: ReadBlock's charge order is data first, so the
			// pending span plus this boundary flush before the metadata.
			b.traffic.AddRead(stats.Data, uint64(chunkEnd-i)*dram.BlockBytes)
			lastFree, lastIssue, nr := cur.Data(r, pending+1)
			r = nr
			counterAt := lastIssue
			if isCtr {
				counterAt = b.ctrStreakAccess(cur, lastIssue, a, ctrCount, false)
			}
			macAt := lastIssue
			if isMac {
				if macSwept {
					macAt = b.macSweepAccess(cur, lastIssue, macCount, b.sweep.Outcome(sweepLi), false)
					sweepLi++
				} else {
					macAt = b.macStreakAccess(cur, lastIssue, a, macCount, false)
				}
			}
			dataAt := max64(lastFree+lat, counterAt+b.cfg.OTPCycles)
			dataAt = max64(dataAt+b.cfg.XORCycles, macAt) + b.cfg.MACCycles
			if dataAt > maxDataAt {
				maxDataAt = dataAt
			}
			pending = chunkEnd - (i + 1)
			i = chunkEnd
			continue
		}
		// Boundary block: ReadBlock's operation order (data transfer,
		// counter access + walk, MAC access). Only a line-opening access
		// runs the model; hits on lines this call opened are charged by
		// ctrHits/macHits once the chunk's served count is known.
		b.traffic.AddRead(stats.Data, dram.BlockBytes)
		busFree := b.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
		counterAt := r
		if isCtr {
			ctrHits.open(b.counterLineAddr(a))
			counterAt = b.counterAccess(r, a, false)
		}
		macAt := r
		if isMac {
			macHits.open(macLineAddr(a, b.cfg.MACSlotBytes))
			macAt = macAccess(b.mac, &b.cfg, &b.traffic, r, a, false, false)
		}
		dataAt := max64(busFree+lat, counterAt+b.cfg.OTPCycles)
		dataAt = max64(dataAt+b.cfg.XORCycles, macAt) + b.cfg.MACCycles
		if dataAt > maxDataAt {
			maxDataAt = dataAt
		}
		r = w.Issue(r, busFree)
		// Covered blocks: counter and MAC hits resolve at the issue time,
		// which the OTP term strictly dominates, so the per-block max
		// collapses to bus arrival vs. last-issue OTP.
		covered := 0
		if pure := chunkEnd - (i + 1); pure > 0 && r < horizon {
			nr, maxFree, lastIssue, k := b.cfg.Bus.StreamRun(r, a+dram.BlockBytes, pure, w, horizon)
			b.traffic.AddRead(stats.Data, uint64(k)*dram.BlockBytes)
			r = nr
			d := max64(maxFree+lat, lastIssue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles
			if d > maxDataAt {
				maxDataAt = d
			}
			covered = k
		}
		ctrHits.serve(isCtr, covered)
		macHits.serve(isMac, covered)
		if i += 1 + covered; r >= horizon {
			break
		}
		// Rejoin the streak for the remaining chunks when possible; it
		// charges only the lines it opens, so the open lines' remaining
		// hits are charged now.
		inStreak = unbounded && n-i >= streakMinBlocks && b.cfg.Bus.BeginRun(w, r, 5*(n-i)+16)
		if inStreak {
			ctrHits.prepay(minInt(nextCtr, n) - i)
			macHits.prepay(minInt(nextMac, n) - i)
			macSwept = b.beginMacSweep(addr, nextMac, n, false)
			sweepLi = 0
		}
	}
	ctrHits.flush()
	macHits.flush()
	if inStreak {
		if macSwept {
			b.sweep.CommitPrefix(sweepLi)
		}
		if pending > 0 {
			lastFree, lastIssue, nr := cur.Data(r, pending)
			r = nr
			if d := max64(lastFree+lat, lastIssue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles; d > maxDataAt {
				maxDataAt = d
			}
		}
		cur.Commit()
	}
	return r, maxDataAt, i
}

// WriteRun batches counter-line chunks of the write run. //tnpu:noalloc
func (b *baseline) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	if !b.batchSafe() {
		return runPerBlock(b, false, ready, addr, version, n, w, horizon)
	}
	arity := b.cfg.TreeArity
	r := ready
	nextCtr, nextMac := 0, 0
	var ctrCount, macCount uint64
	var minorLine *[integrity.Arity]uint8
	ctrHits, macHits := lineHits{c: b.counter, write: true}, lineHits{c: b.mac, write: true}
	cur := w.Cursor()
	// A minor-counter wrap emits a re-encryption burst between two data
	// blocks. The streak bumps minor counters in bulk, so it serves only
	// runs that wrap none (at most one write-run in 128 to any line wraps);
	// the per-line body bumps each served block in order and lands the
	// burst exactly where the per-block model puts it.
	wrapFree := horizon == dram.NoHorizon && n >= streakMinBlocks && !b.overflowPending(addr, n)
	inStreak := wrapFree && b.cfg.Bus.BeginRun(w, r, 5*n+16)
	macSwept := inStreak && b.beginMacSweep(addr, 0, n, true)
	sweepLi := 0 // MAC-line outcomes consumed from the active sweep
	pending := 0 // deferred data blocks awaiting one streak span charge
	// Chunk-stretch collapse precondition; see ReadRun.
	mFull := 0
	if dram.BlockBytes%b.cfg.MACSlotBytes == 0 {
		if m := int(dram.BlockBytes / b.cfg.MACSlotBytes); arity%uint64(m) == 0 {
			mFull = m
		}
	}
	i := 0
	for i < n {
		a := addr + uint64(i)*dram.BlockBytes
		blockIdx := a / dram.BlockBytes
		isCtr := i == nextCtr
		isMac := i == nextMac
		if isCtr {
			cm := int(arity - blockIdx%arity)
			ctrCount = uint64(minInt(cm, n-i))
			nextCtr = i + cm
		}
		if isMac {
			mm := macRunLen(a, b.cfg.MACSlotBytes)
			macCount = uint64(minInt(mm, n-i))
			nextMac = i + mm
		}
		chunkEnd := minInt(minInt(nextCtr, nextMac), n)
		lineIdx, slot := b.geo.CounterIndex(blockIdx)
		if inStreak && isCtr && !b.ctrSimple(a, r) {
			// See ReadRun: hand this chunk to the reference path untouched.
			if macSwept {
				b.sweep.CommitPrefix(sweepLi)
				macSwept = false
			}
			if pending > 0 {
				lastFree, _, nr := cur.Data(r, pending)
				r = nr
				if lastFree > maxDataAt {
					maxDataAt = lastFree
				}
				pending = 0
			}
			cur.Commit()
			inStreak = false
			ctrHits.pre, macHits.pre = true, true
		}
		if inStreak && macSwept && mFull > 0 && isMac && chunkEnd == i+mFull &&
			b.ctrStretchEntryOK(blockIdx, isCtr) {
			// Stretch of full chunks in one MAC outcome class with resident
			// counters (see ReadRun): hit chunks charge nothing on the
			// write-validated path and fold into the pending span; miss
			// chunks each flush the deferred previous chunk and append the
			// victim writeback and RMW fetch — one period DataPeriodic
			// repeats when pending is exactly mFull.
			out0 := b.sweep.Outcome(sweepLi)
			if p := b.chunkStretch(addr, i, n, sweepLi, mFull, out0, true); p >= 2 {
				if out0.Hit {
					b.traffic.AddWrite(stats.Data, uint64(p*mFull)*dram.BlockBytes)
					b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
					if isCtr && blockIdx%arity != 0 {
						b.ctrPartialHit(blockIdx, ctrCount, true)
					}
					b.ctrStretchHits(addr, i, p, mFull, n, true)
					b.minorStretchBump(addr, i, p*mFull)
					pending += p * mFull
					sweepLi += p
					i += p * mFull
					nextMac = i
					for nextCtr < i {
						nextCtr += int(arity)
					}
					// Keep minorLine current for a mid-line successor chunk.
					li2, _ := b.geo.CounterIndex(addr/dram.BlockBytes + uint64(i))
					minorLine = b.minors[li2]
					continue
				}
				if pending == mFull {
					trail := 1
					if out0.Writeback {
						trail = 2 // victim writeback precedes the RMW fetch
					}
					if lastFree, _, nr, ok := cur.DataPeriodic(r, p, mFull, 0, trail); ok {
						b.traffic.AddWrite(stats.Data, uint64(p*mFull)*dram.BlockBytes)
						b.traffic.AddRead(stats.MAC, uint64(p)*dram.BlockBytes)
						if out0.Writeback {
							b.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
						}
						b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
						if isCtr && blockIdx%arity != 0 {
							b.ctrPartialHit(blockIdx, ctrCount, true)
						}
						b.ctrStretchHits(addr, i, p, mFull, n, true)
						b.minorStretchBump(addr, i, p*mFull)
						if lastFree > maxDataAt {
							maxDataAt = lastFree
						}
						r = nr
						sweepLi += p
						i += p * mFull
						nextMac = i
						for nextCtr < i {
							nextCtr += int(arity)
						}
						// pending stays mFull: the final chunk's data is the
						// deferred span the next flush charges.
						li2, _ := b.geo.CounterIndex(addr/dram.BlockBytes + uint64(i))
						minorLine = b.minors[li2]
						continue
					}
				}
			}
		}
		if inStreak {
			// WriteBlock charges metadata before data, so a chunk whose
			// lines are both resident (hence chargeless) folds straight into
			// the pending span; otherwise the deferred data of earlier
			// chunks lands first, then the metadata charges, then this
			// chunk's data joins a fresh span. With an active sweep the MAC
			// residency question is answered by the outcome (the cache
			// itself is stale until CommitPrefix).
			var macRes cache.Result
			macHit := true
			if isMac {
				if macSwept {
					macRes = b.sweep.Outcome(sweepLi)
					macHit = macRes.Hit
				} else {
					macHit = b.mac.Probe(macLineAddr(a, b.cfg.MACSlotBytes))
				}
			}
			clean := (!isCtr || b.counter.Probe(b.geo.NodeAddr(0, lineIdx))) && macHit
			if !clean && pending > 0 {
				lastFree, _, nr := cur.Data(r, pending)
				r = nr
				if lastFree > maxDataAt {
					maxDataAt = lastFree
				}
				pending = 0
			}
			if isCtr {
				if clean {
					b.counter.Access(b.geo.NodeAddr(0, lineIdx), true)
					b.counter.AddRunHits(ctrCount - 1)
				} else {
					// A walk's completion can outlast the run's final bus
					// clear, so it feeds maxDataAt directly.
					if counterAt := b.ctrStreakAccess(cur, r, a, ctrCount, true); counterAt > maxDataAt {
						maxDataAt = counterAt
					}
				}
				minorLine = b.minorLineOf(lineIdx)
			}
			b.minorDigAdd(lineIdx, slot, chunkEnd-i)
			for k := 0; k < chunkEnd-i; k++ {
				minorLine[slot+k]++
			}
			if isMac {
				if macSwept {
					if clean {
						// Hit: CommitPrefix applies the lookup, promotion,
						// and dirtying of the sweep's write access.
						b.mac.AddRunHits(macCount - 1)
					} else {
						b.macSweepAccess(cur, r, macCount, macRes, true)
					}
					sweepLi++
				} else if clean {
					b.mac.Access(macLineAddr(a, b.cfg.MACSlotBytes), true)
					b.mac.AddRunHits(macCount - 1)
				} else {
					b.macStreakAccess(cur, r, a, macCount, true)
				}
			}
			b.traffic.AddWrite(stats.Data, uint64(chunkEnd-i)*dram.BlockBytes)
			pending += chunkEnd - i
			i = chunkEnd
			continue
		}
		// Boundary block: WriteBlock's operation order (counter RMW, minor
		// bump, MAC update, data transfer), hits charged as in ReadRun.
		counterAt := r
		if isCtr {
			ctrHits.open(b.geo.NodeAddr(0, lineIdx))
			counterAt = b.counterAccess(r, a, true)
			minorLine = b.minorLineOf(lineIdx)
		}
		b.bumpSlot(r, a, lineIdx, slot, minorLine)
		if isMac {
			macHits.open(macLineAddr(a, b.cfg.MACSlotBytes))
			macAccess(b.mac, &b.cfg, &b.traffic, r, a, true, false)
		}
		b.traffic.AddWrite(stats.Data, dram.BlockBytes)
		busFree := b.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
		if d := max64(busFree, counterAt); d > maxDataAt {
			maxDataAt = d
		}
		r = w.Issue(r, busFree)
		// Covered blocks: cache hits and minor bumps of the served blocks;
		// the write path completes at each block's bus-clear time. A block
		// whose minor counter is about to wrap ends the chunk: it is the
		// next boundary, where bumpSlot lands its re-encryption burst.
		covered := 0
		pure := chunkEnd - (i + 1)
		for j := 1; j <= pure; j++ {
			if minorLine[slot+j] == 1<<7-1 {
				pure = j - 1
				break
			}
		}
		if pure > 0 && r < horizon {
			nr, maxFree, _, k := b.cfg.Bus.StreamRun(r, a+dram.BlockBytes, pure, w, horizon)
			b.minorDigAdd(lineIdx, slot+1, k)
			for j := 1; j <= k; j++ {
				minorLine[slot+j]++
			}
			b.traffic.AddWrite(stats.Data, uint64(k)*dram.BlockBytes)
			r = nr
			if maxFree > maxDataAt {
				maxDataAt = maxFree
			}
			covered = k
		}
		ctrHits.serve(isCtr, covered)
		macHits.serve(isMac, covered)
		if i += 1 + covered; r >= horizon {
			break
		}
		// Rejoin the streak for the remaining chunks when possible.
		inStreak = wrapFree && n-i >= streakMinBlocks && b.cfg.Bus.BeginRun(w, r, 5*(n-i)+16)
		if inStreak {
			ctrHits.prepay(minInt(nextCtr, n) - i)
			macHits.prepay(minInt(nextMac, n) - i)
			macSwept = b.beginMacSweep(addr, nextMac, n, true)
			sweepLi = 0
		}
	}
	ctrHits.flush()
	macHits.flush()
	if inStreak {
		if macSwept {
			b.sweep.CommitPrefix(sweepLi)
		}
		if pending > 0 {
			lastFree, _, nr := cur.Data(r, pending)
			r = nr
			if lastFree > maxDataAt {
				maxDataAt = lastFree
			}
		}
		cur.Commit()
	}
	return r, maxDataAt, i
}

// overflowPending reports whether writing blocks [addr, addr+n*64) would
// wrap any 7-bit minor counter (pre-increment value 127): each block in a
// run bumps a distinct slot, so a scan of the covered slots decides it.
//
//tnpu:pure
func (b *baseline) overflowPending(addr uint64, n int) bool {
	blockIdx := addr / dram.BlockBytes
	for i := 0; i < n; {
		lineIdx, slot := b.geo.CounterIndex(blockIdx + uint64(i))
		span := int(b.cfg.TreeArity) - slot
		if span > n-i {
			span = n - i
		}
		if line := b.minors[lineIdx]; line != nil {
			for s := slot; s < slot+span; s++ {
				if line[s] == 1<<7-1 {
					return true
				}
			}
		}
		i += span
	}
	return false
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
