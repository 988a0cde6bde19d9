package memprot

import (
	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/stats"
)

// runPerBlock is the reference fallback: the per-block engine path under
// the caller's issue window, used whenever a scheme cannot batch safely.
func runPerBlock(e Engine, read bool, ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	c := s.cursor()
	r := ready
	for served < s.Left {
		a, _ := c.at(served)
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
func (b *baseline) batchSafe() bool {
	return !b.cfg.CounterPrefetch || b.cfg.CounterCacheBytes > dram.BlockBytes
}

// --- unsecure / encrypt-only: pure bandwidth arithmetic ---

// ReadRun serves a read stream as bus streams. //tnpu:noalloc
func (u *unsecure) ReadRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, k := streamData(u.cfg.Bus, ready, s, w, horizon)
	u.traffic.AddRead(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree + u.cfg.Bus.Latency(), k
}

// WriteRun serves a write stream as bus streams. //tnpu:noalloc
func (u *unsecure) WriteRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, k := streamData(u.cfg.Bus, ready, s, w, horizon)
	u.traffic.AddWrite(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree, k
}

// ReadRun streams the run and tacks the XTS pipe onto arrival. //tnpu:noalloc
func (e *encryptOnly) ReadRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, k := streamData(e.cfg.Bus, ready, s, w, horizon)
	e.traffic.AddRead(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree + e.cfg.Bus.Latency() + e.cfg.XTSCycles, k
}

// WriteRun streams the run; encryption overlaps issue. //tnpu:noalloc
func (e *encryptOnly) WriteRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	next, maxFree, k := streamData(e.cfg.Bus, ready, s, w, horizon)
	e.traffic.AddWrite(stats.Data, uint64(k)*dram.BlockBytes)
	return next, maxFree, k
}

// streamData issues a stream's data blocks with no metadata and returns
// the next issue time, the latest bus clear and the blocks served. A
// single-channel bus selects nothing by address, so there the whole stream
// is one StreamRun; a multi-channel bus routes each block by its address,
// so there each segment is one, and the stream stops after a segment whose
// last block's next issue time reaches horizon. //tnpu:noalloc
func streamData(bus *dram.Bus, ready uint64, s *Stream, w *dram.IssueWindow, horizon uint64) (nextReady, maxFree uint64, served int) {
	if bus.Channels() == 1 {
		next, maxFree, _, k := bus.StreamRun(ready, s.Addr+s.Off, s.Left, w, horizon)
		return next, maxFree, k
	}
	c := s.cursor()
	r := ready
	for {
		a, rest := c.at(served)
		nr, mf, _, k := bus.StreamRun(r, a, rest, w, horizon)
		r = nr
		if mf > maxFree {
			maxFree = mf
		}
		if served += k; served == s.Left || r >= horizon {
			return r, maxFree, served
		}
	}
}

// --- tree-less (TNPU): batches whole MAC-line streaks ---

// Long uncontended streams on a single channel are served as one streak
// (streak.go) across their segment ends: MAC-line outcomes resolve per
// segment, and the reference charge sequence replays through the issue
// window's dram.RunCursor in closed form, admitted by the dram.Bus.BeginRun
// guard. The per-line loop below serves everything else — contended runs
// stopped at a horizon, short streams, multi-channel buses, and streams
// BeginRun refuses: each MAC line's first block takes the full per-block
// path and its covered blocks stream as pure bus arithmetic. A refused
// stream retries entry at every later line start, because a refusal
// usually comes from a remembered idle gap (often the version fetch's),
// which the stream's own blocks consume or overtake as they land.

// ReadRun batches MAC-line streaks of the read stream. //tnpu:noalloc
func (t *treeless) ReadRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	n := s.Left
	unbounded := horizon == dram.NoHorizon
	c := s.cursor()
	r := ready
	lat := t.cfg.Bus.Latency()
	i := 0
	for i < n {
		if cur := streakCursor(t.cfg.Bus, w, unbounded, r, n-i, 3); cur != nil {
			nr, d := t.readStreak(r, s, i, cur)
			return nr, max64(maxDataAt, d), n
		}
		a, rest := c.at(i)
		busFree, dataAt := t.ReadBlock(r, a, version)
		if dataAt > maxDataAt {
			maxDataAt = dataAt
		}
		r = w.Issue(r, busFree)
		i++
		// Covered blocks: the MAC hit resolves at the issue time, which the
		// data-arrival term always dominates, leaving pure bus arithmetic.
		if m := minInt(macRunLen(a, t.cfg.MACSlotBytes), rest); m > 1 && r < horizon {
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

// WriteRun batches MAC-line streaks of the write stream. //tnpu:noalloc
func (t *treeless) WriteRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	n := s.Left
	unbounded := horizon == dram.NoHorizon
	c := s.cursor()
	r := ready
	i := 0
	for i < n {
		if cur := streakCursor(t.cfg.Bus, w, unbounded, r, n-i, 3); cur != nil {
			nr, d := t.writeStreak(r, s, i, cur)
			return nr, max64(maxDataAt, d), n
		}
		a, rest := c.at(i)
		busFree, _ := t.WriteBlock(r, a, version)
		if busFree > maxDataAt {
			maxDataAt = busFree
		}
		r = w.Issue(r, busFree)
		i++
		if m := minInt(macRunLen(a, t.cfg.MACSlotBytes), rest); m > 1 && r < horizon {
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
// Long single-channel segments additionally stream chunk sequences through
// a RunCursor (streak.go): chunks whose counter access ctrSimple can prove
// append-safe replay in closed form, and any other chunk drops out of the
// streak — before touching state — onto the reference body below,
// rejoining afterwards when enough blocks remain. A stream is served one
// segment at a time through that body.

// ReadRun batches counter-line chunks of the read stream. //tnpu:noalloc
func (b *baseline) ReadRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	if !b.batchSafe() {
		return runPerBlock(b, true, ready, s, version, w, horizon)
	}
	return b.runSegments(false, ready, s, w, horizon)
}

// WriteRun batches counter-line chunks of the write stream. //tnpu:noalloc
func (b *baseline) WriteRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	if !b.batchSafe() {
		return runPerBlock(b, false, ready, s, version, w, horizon)
	}
	return b.runSegments(true, ready, s, w, horizon)
}

// runSegments serves a stream segment by segment, stopping after a segment
// whose last served block's next issue time reaches horizon. Each segment
// ends a streak: a write segment's overflowPending then judges it with the
// earlier segments' minor-counter bumps applied. //tnpu:noalloc
func (b *baseline) runSegments(write bool, ready uint64, s *Stream, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	c := s.cursor()
	r := ready
	for {
		a, rest := c.at(served)
		var d uint64
		var k int
		if write {
			r, d, k = b.writeSegment(r, a, rest, w, horizon)
		} else {
			r, d, k = b.readSegment(r, a, rest, w, horizon)
		}
		if d > maxDataAt {
			maxDataAt = d
		}
		if served += k; served == s.Left || r >= horizon {
			return r, maxDataAt, served
		}
	}
}

// readSegment serves up to n blocks of one read segment from addr.
// //tnpu:noalloc
func (b *baseline) readSegment(ready, addr uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	arity := b.cfg.TreeArity
	lat := b.cfg.Bus.Latency()
	r := ready
	nextCtr, nextMac := 0, 0
	var ctrCount, macCount uint64
	ctrHits, macHits := lineHits{c: b.counter}, lineHits{c: b.mac}
	unbounded := horizon == dram.NoHorizon
	cur := streakCursor(b.cfg.Bus, w, unbounded, r, n, 5) // nil off the streak
	macSwept := cur != nil && b.beginMacSweep(addr, 0, n, false)
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
		if cur != nil && isCtr && !b.ctrSimple(a, r) {
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
			cur = nil
			// The streak charged its open lines' hits through the run's end.
			ctrHits.pre, macHits.pre = true, true
		}
		if cur != nil && macSwept && mFull > 0 && isMac && pending == mFull-1 && chunkEnd == i+mFull &&
			(!isCtr || blockIdx%arity == 0) {
			// Stretch of full chunks in one MAC writeback class with resident
			// counters: every chunk charges [span(mFull), MAC writeback?, MAC
			// fetch] with the counter access free, so the whole stretch is
			// one periodic span. Arrival, issue, and MAC-fetch terms all grow
			// per chunk, so the final chunk dominates the stretch's dataAt.
			out0 := b.sweep.Outcome(sweepLi)
			if p := b.chunkStretch(addr, i, n, sweepLi, mFull, out0, false); p >= 2 {
				trail := 1
				if out0.Writeback {
					trail = 2 // victim writeback precedes the fetch
				}
				if lastFree, lastIssue, nr, ok := cur.DataPeriodic(r, p, mFull, trail); ok {
					b.traffic.AddRead(stats.Data, uint64(p*mFull)*dram.BlockBytes)
					if out0.Writeback {
						b.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
					}
					b.traffic.AddRead(stats.MAC, uint64(p)*dram.BlockBytes)
					// The fetch is each period's last charge, so the final
					// macAt is the horizon plus the bus latency.
					macAt := cur.Horizon() + lat
					b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
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
		if cur != nil {
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
		if cur = streakCursor(b.cfg.Bus, w, unbounded, r, n-i, 5); cur != nil {
			ctrHits.prepay(minInt(nextCtr, n) - i)
			macHits.prepay(minInt(nextMac, n) - i)
			macSwept = b.beginMacSweep(addr, nextMac, n, false)
			sweepLi = 0
		}
	}
	ctrHits.flush()
	macHits.flush()
	if cur != nil {
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

// writeSegment serves up to n blocks of one write segment from addr.
// //tnpu:noalloc
func (b *baseline) writeSegment(ready, addr uint64, n int, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int) {
	arity := b.cfg.TreeArity
	r := ready
	nextCtr, nextMac := 0, 0
	var ctrCount, macCount uint64
	var minorLine *[integrity.Arity]uint8
	ctrHits, macHits := lineHits{c: b.counter, write: true}, lineHits{c: b.mac, write: true}
	// A minor-counter wrap emits a re-encryption burst between two data
	// blocks. The streak bumps minor counters in bulk, so it serves only
	// runs that wrap none (at most one write-run in 128 to any line wraps);
	// the per-line body bumps each served block in order and lands the
	// burst exactly where the per-block model puts it.
	wrapFree := horizon == dram.NoHorizon && n >= streakMinBlocks && !b.overflowPending(addr, n)
	cur := streakCursor(b.cfg.Bus, w, wrapFree, r, n, 5) // nil off the streak
	macSwept := cur != nil && b.beginMacSweep(addr, 0, n, true)
	sweepLi := 0 // MAC-line outcomes consumed from the active sweep
	pending := 0 // deferred data blocks awaiting one streak span charge
	// Chunk-stretch collapse precondition; see readSegment.
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
		if cur != nil && isCtr && !b.ctrSimple(a, r) {
			// See readSegment: hand this chunk to the reference path untouched.
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
			cur = nil
			ctrHits.pre, macHits.pre = true, true
		}
		if cur != nil && macSwept && mFull > 0 && isMac && chunkEnd == i+mFull && pending == mFull &&
			(!isCtr || blockIdx%arity == 0) {
			// Stretch of full chunks in one MAC writeback class with resident
			// counters (see readSegment): each chunk flushes the deferred previous
			// chunk and appends the victim writeback and RMW fetch — one
			// period DataPeriodic repeats, since pending is exactly mFull.
			out0 := b.sweep.Outcome(sweepLi)
			if p := b.chunkStretch(addr, i, n, sweepLi, mFull, out0, true); p >= 2 {
				trail := 1
				if out0.Writeback {
					trail = 2 // victim writeback precedes the RMW fetch
				}
				if lastFree, _, nr, ok := cur.DataPeriodic(r, p, mFull, trail); ok {
					b.traffic.AddWrite(stats.Data, uint64(p*mFull)*dram.BlockBytes)
					b.traffic.AddRead(stats.MAC, uint64(p)*dram.BlockBytes)
					if out0.Writeback {
						b.traffic.AddWrite(stats.MAC, uint64(p)*dram.BlockBytes)
					}
					b.mac.AddRunHits(uint64(p) * uint64(mFull-1))
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
					// deferred span the next flush charges. Keep minorLine
					// current for a mid-line successor chunk.
					li2, _ := b.geo.CounterIndex(addr/dram.BlockBytes + uint64(i))
					minorLine = b.minors[li2]
					continue
				}
			}
		}
		if cur != nil {
			// WriteBlock charges metadata before data, so a chunk whose
			// lines are both resident (hence chargeless) folds straight into
			// the pending span; otherwise the deferred data of earlier
			// chunks lands first, then the metadata charges, then this
			// chunk's data joins a fresh span. A MAC line of an active cold
			// sweep is never resident.
			macHit := !isMac || (!macSwept && b.mac.Probe(macLineAddr(a, b.cfg.MACSlotBytes)))
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
			for k := 0; k < chunkEnd-i; k++ {
				minorLine[slot+k]++
			}
			if isMac {
				if macSwept {
					b.macSweepAccess(cur, r, macCount, b.sweep.Outcome(sweepLi), true)
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
		// bump, MAC update, data transfer), hits charged as in readSegment.
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
		if cur = streakCursor(b.cfg.Bus, w, wrapFree, r, n-i, 5); cur != nil {
			ctrHits.prepay(minInt(nextCtr, n) - i)
			macHits.prepay(minInt(nextMac, n) - i)
			macSwept = b.beginMacSweep(addr, nextMac, n, true)
			sweepLi = 0
		}
	}
	ctrHits.flush()
	macHits.flush()
	if cur != nil {
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
