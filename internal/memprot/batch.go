package memprot

import (
	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/stats"
)

// RunEngine is the optional batched fast path of a protection engine:
// serve nBlocks consecutive data blocks in one call, gated by the caller's
// DMA issue window, with bus state, cache state, statistics, and returned
// times identical to pushing the same blocks through ReadBlock/WriteBlock
// one at a time:
//
//	for i := 0; i < nBlocks; i++ {
//	    busFree, dataAt := e.ReadBlock(ready, addr+uint64(i)*dram.BlockBytes, version)
//	    maxDataAt = max(maxDataAt, dataAt)
//	    ready = w.Issue(ready, busFree)
//	}
//
// The batching exploits the same regularity TNPU's hardware does: a
// streaming DMA touches each metadata line once and then hits it for every
// remaining covered block, so only line-boundary blocks need the full
// model. It is an optional interface so engine wrappers (e.g. the attack
// harness) transparently keep the per-block path.
type RunEngine interface {
	ReadRun(ready, addr, version uint64, nBlocks int, w *dram.IssueWindow) (nextReady, maxDataAt uint64)
	WriteRun(ready, addr, version uint64, nBlocks int, w *dram.IssueWindow) (nextReady, maxDataAt uint64)
}

// runPerBlock is the reference fallback: the per-block engine path under
// the caller's issue window, used whenever a scheme cannot batch safely.
func runPerBlock(e Engine, read bool, ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	r := ready
	for i := 0; i < n; i++ {
		a := addr + uint64(i)*dram.BlockBytes
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
	}
	return r, maxDataAt
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

// macAccessRun is macAccess for count consecutive blocks under one MAC
// line: the boundary block runs the full hit/miss path; the remaining
// count-1 per-block accesses would be guaranteed hits on the just-touched
// line (nothing else touches the MAC cache in between), so they are
// charged through cache.AccessRun without re-walking the model. This is
// the per-block reference of the treeless fallback loop. //tnpu:reference
func macAccessRun(c *cache.Cache, cfg *Config, traffic *stats.Traffic, ready, addr, count uint64, write, writeValidate bool) uint64 {
	at := macAccess(c, cfg, traffic, ready, addr, write, writeValidate)
	if count > 1 {
		c.AccessRun(macLineAddr(addr, cfg.MACSlotBytes), count-1, write)
	}
	return at
}

// counterAccessRun is counterAccess for count consecutive blocks under one
// counter line. The embedded real access of cache.AccessRun re-promotes
// the demand line over a next-line prefetch fill, exactly as the first
// per-block hit after a prefetching miss would.
func (b *baseline) counterAccessRun(ready, addr, count uint64, write bool) uint64 {
	at := b.counterAccess(ready, addr, write)
	if count > 1 {
		b.counter.AccessRun(b.counterLineAddr(addr), count-1, write)
	}
	return at
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
func (u *unsecure) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	u.traffic.AddRead(stats.Data, uint64(n)*dram.BlockBytes)
	next, maxFree, _ := u.cfg.Bus.StreamRun(ready, addr, n, w)
	return next, maxFree + u.cfg.Bus.Latency()
}

// WriteRun serves a write run as one bus stream. //tnpu:noalloc
// //tnpu:exactform one StreamRun is the model itself, not an approximation of a per-block loop
func (u *unsecure) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	u.traffic.AddWrite(stats.Data, uint64(n)*dram.BlockBytes)
	next, maxFree, _ := u.cfg.Bus.StreamRun(ready, addr, n, w)
	return next, maxFree
}

// ReadRun streams the run and tacks the XTS pipe onto arrival. //tnpu:noalloc
// //tnpu:exactform stream plus fixed XTS latency is the model itself, exact for every run
func (e *encryptOnly) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	e.traffic.AddRead(stats.Data, uint64(n)*dram.BlockBytes)
	next, maxFree, _ := e.cfg.Bus.StreamRun(ready, addr, n, w)
	return next, maxFree + e.cfg.Bus.Latency() + e.cfg.XTSCycles
}

// WriteRun streams the run; encryption overlaps issue. //tnpu:noalloc
// //tnpu:exactform stream with overlapped encryption is the model itself, exact for every run
func (e *encryptOnly) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	e.traffic.AddWrite(stats.Data, uint64(n)*dram.BlockBytes)
	next, maxFree, _ := e.cfg.Bus.StreamRun(ready, addr, n, w)
	return next, maxFree
}

// --- tree-less (TNPU): batches whole MAC-line streaks ---

// Long runs on a single channel are served as one streak (streak.go):
// every MAC-line outcome is resolved in one cache walk and the reference
// charge sequence replays through the issue window's dram.RunCursor in
// closed form, admitted by the dram.Bus.BeginRun guard. The per-line
// loop below remains as the fallback for short runs, multi-channel buses,
// and configurations where the append invariant is unprovable.

// ReadRun batches MAC-line streaks of the read run. //tnpu:noalloc
func (t *treeless) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	if n >= streakMinBlocks && t.cfg.Bus.BeginRun(w, ready, 3*n+16) {
		return t.readStreak(ready, addr, n, w)
	}
	r := ready
	lat := t.cfg.Bus.Latency()
	for i := 0; i < n; {
		// A rejected run usually failed on a remembered idle gap; gaps are
		// consumed (or overtaken) as the run's own blocks land, so retry
		// the streak for the remaining lines.
		if i > 0 && n-i >= streakMinBlocks && t.cfg.Bus.BeginRun(w, r, 3*(n-i)+16) {
			nr, d := t.readStreak(r, addr+uint64(i)*dram.BlockBytes, n-i, w)
			if d > maxDataAt {
				maxDataAt = d
			}
			return nr, maxDataAt
		}
		a := addr + uint64(i)*dram.BlockBytes
		m := macRunLen(a, t.cfg.MACSlotBytes)
		if m > n-i {
			m = n - i
		}
		// Line-boundary block: full ReadBlock path, charging the MAC line
		// for every block it covers in this run.
		t.traffic.AddRead(stats.Data, dram.BlockBytes)
		busFree := t.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
		macAt := macAccessRun(t.mac, &t.cfg, &t.traffic, r, a, uint64(m), false, true)
		dataAt := max64(busFree+lat+t.cfg.XTSCycles, macAt) + t.cfg.MACCycles
		if dataAt > maxDataAt {
			maxDataAt = dataAt
		}
		r = w.Issue(r, busFree)
		// Covered blocks: the MAC hit resolves at the issue time, which the
		// data-arrival term always dominates, leaving pure bus arithmetic.
		if m > 1 {
			t.traffic.AddRead(stats.Data, uint64(m-1)*dram.BlockBytes)
			nr, maxFree, _ := t.cfg.Bus.StreamRun(r, a+dram.BlockBytes, m-1, w)
			r = nr
			if d := maxFree + lat + t.cfg.XTSCycles + t.cfg.MACCycles; d > maxDataAt {
				maxDataAt = d
			}
		}
		i += m
	}
	return r, maxDataAt
}

// WriteRun batches MAC-line streaks of the write run. //tnpu:noalloc
func (t *treeless) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	if n >= streakMinBlocks && t.cfg.Bus.BeginRun(w, ready, 3*n+16) {
		return t.writeStreak(ready, addr, n, w)
	}
	r := ready
	for i := 0; i < n; {
		// See ReadRun: retry the streak once the rejecting gap is behind.
		if i > 0 && n-i >= streakMinBlocks && t.cfg.Bus.BeginRun(w, r, 3*(n-i)+16) {
			nr, d := t.writeStreak(r, addr+uint64(i)*dram.BlockBytes, n-i, w)
			if d > maxDataAt {
				maxDataAt = d
			}
			return nr, maxDataAt
		}
		a := addr + uint64(i)*dram.BlockBytes
		m := macRunLen(a, t.cfg.MACSlotBytes)
		if m > n-i {
			m = n - i
		}
		macAccessRun(t.mac, &t.cfg, &t.traffic, r, a, uint64(m), true, true)
		t.traffic.AddWrite(stats.Data, dram.BlockBytes)
		busFree := t.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
		if busFree > maxDataAt {
			maxDataAt = busFree
		}
		r = w.Issue(r, busFree)
		if m > 1 {
			t.traffic.AddWrite(stats.Data, uint64(m-1)*dram.BlockBytes)
			nr, maxFree, _ := t.cfg.Bus.StreamRun(r, a+dram.BlockBytes, m-1, w)
			r = nr
			if maxFree > maxDataAt {
				maxDataAt = maxFree
			}
		}
		i += m
	}
	return r, maxDataAt
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
func (b *baseline) ReadRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	if !b.batchSafe() {
		return runPerBlock(b, true, ready, addr, version, n, w)
	}
	arity := b.cfg.TreeArity
	lat := b.cfg.Bus.Latency()
	r := ready
	nextCtr, nextMac := 0, 0
	var ctrCount, macCount uint64
	cur := w.Cursor()
	inStreak := n >= streakMinBlocks && b.cfg.Bus.BeginRun(w, r, 5*n+16)
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
	for i := 0; i < n; {
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
		// counter access + walk, MAC access), with each line-opening access
		// charged for every block it covers in this run.
		b.traffic.AddRead(stats.Data, dram.BlockBytes)
		busFree := b.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
		counterAt := r
		if isCtr {
			counterAt = b.counterAccessRun(r, a, ctrCount, false)
		}
		macAt := r
		if isMac {
			macAt = macAccessRun(b.mac, &b.cfg, &b.traffic, r, a, macCount, false, false)
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
		if pure := chunkEnd - (i + 1); pure > 0 {
			b.traffic.AddRead(stats.Data, uint64(pure)*dram.BlockBytes)
			nr, maxFree, lastIssue := b.cfg.Bus.StreamRun(r, a+dram.BlockBytes, pure, w)
			r = nr
			d := max64(maxFree+lat, lastIssue+b.cfg.OTPCycles) + b.cfg.XORCycles + b.cfg.MACCycles
			if d > maxDataAt {
				maxDataAt = d
			}
		}
		i = chunkEnd
		// Rejoin the streak for the remaining chunks when possible.
		inStreak = n-i >= streakMinBlocks && b.cfg.Bus.BeginRun(w, r, 5*(n-i)+16)
		if inStreak {
			macSwept = b.beginMacSweep(addr, nextMac, n, false)
			sweepLi = 0
		}
	}
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
	return r, maxDataAt
}

// WriteRun batches counter-line chunks of the write run. //tnpu:noalloc
func (b *baseline) WriteRun(ready, addr, version uint64, n int, w *dram.IssueWindow) (nextReady, maxDataAt uint64) {
	// A minor-counter overflow mid-run emits a re-encryption burst between
	// two data blocks; runs about to overflow (at most one write-run in 128
	// to any line) take the reference path so the burst lands exactly where
	// the per-block model puts it.
	if !b.batchSafe() || b.overflowPending(addr, n) {
		return runPerBlock(b, false, ready, addr, version, n, w)
	}
	arity := b.cfg.TreeArity
	r := ready
	nextCtr, nextMac := 0, 0
	var ctrCount, macCount uint64
	var minorLine *[integrity.Arity]uint8
	cur := w.Cursor()
	inStreak := n >= streakMinBlocks && b.cfg.Bus.BeginRun(w, r, 5*n+16)
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
	for i := 0; i < n; {
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
				minorLine = b.minors[lineIdx]
				if minorLine == nil {
					// First touch of this counter line; every later run
					// reuses it, so steady state stays at 0 allocs/op.
					minorLine = new([integrity.Arity]uint8) //tnpu:allocok
					b.minors[lineIdx] = minorLine
				}
				b.minorMark(lineIdx)
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
		// bump, MAC update, data transfer).
		counterAt := r
		if isCtr {
			counterAt = b.counterAccessRun(r, a, ctrCount, true)
			minorLine = b.minors[lineIdx]
			if minorLine == nil {
				// First touch of this counter line; every later run
				// reuses it, so steady state stays at 0 allocs/op.
				minorLine = new([integrity.Arity]uint8) //tnpu:allocok
				b.minors[lineIdx] = minorLine
			}
			b.minorMark(lineIdx)
		}
		b.minorDigAdd(lineIdx, slot, 1)
		minorLine[slot]++
		if isMac {
			macAccessRun(b.mac, &b.cfg, &b.traffic, r, a, macCount, true, false)
		}
		b.traffic.AddWrite(stats.Data, dram.BlockBytes)
		busFree := b.cfg.Bus.TransferAt(r, a, dram.BlockBytes)
		if d := max64(busFree, counterAt); d > maxDataAt {
			maxDataAt = d
		}
		r = w.Issue(r, busFree)
		// Covered blocks: cache hits and overflow-free minor bumps; the
		// write path completes at each block's bus-clear time.
		if pure := chunkEnd - (i + 1); pure > 0 {
			b.minorDigAdd(lineIdx, slot+1, pure)
			for k := 1; k <= pure; k++ {
				minorLine[slot+k]++
			}
			b.traffic.AddWrite(stats.Data, uint64(pure)*dram.BlockBytes)
			nr, maxFree, _ := b.cfg.Bus.StreamRun(r, a+dram.BlockBytes, pure, w)
			r = nr
			if maxFree > maxDataAt {
				maxDataAt = maxFree
			}
		}
		i = chunkEnd
		// Rejoin the streak for the remaining chunks when possible.
		inStreak = n-i >= streakMinBlocks && b.cfg.Bus.BeginRun(w, r, 5*(n-i)+16)
		if inStreak {
			macSwept = b.beginMacSweep(addr, nextMac, n, true)
			sweepLi = 0
		}
	}
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
	return r, maxDataAt
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
