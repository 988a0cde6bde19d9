package dram

// This file is the run-length batched fast path of the bus model: the DMA
// issue window and StreamRun, the pure data run. The one closed form
// behind it, the run cursor (streak.go), is defined by exact equivalence
// to a per-block reference loop — same bus state (busyUntil, remainder,
// gaps, byte/cycle counters), same returned times — and callers literally
// run that loop whenever the closed form cannot be proven safe
// (multi-channel routing, a remembered idle gap a block could backfill,
// pathological rates). The closed form rests on two exact identities:
//
//   - Remainder telescoping: the carried sub-cycle remainder makes n
//     per-block charges sum to one aggregate charge,
//     sum_i (B*num+rem_i)/den  ==  (n*B*num + rem_0) / den.
//   - Horizon monotonicity: once no remembered gap can hold a minimum-cost
//     block at the first ready time, no later (larger) ready time can fit
//     one either, so every block appends at the horizon.

// IssueWindow models a DMA engine's bounded outstanding-request window:
// request i may issue only once request i-depth has cleared its channel.
// The per-block and batched execution paths share one window instance so
// both see identical issue gating. The window also owns the run cursor
// (streak.go): it serves one run at a time, and its record ring is sized
// by the window depth, so BeginRun never allocates.
type IssueWindow struct {
	slots []uint64
	idx   int
	run   RunCursor
}

// NewIssueWindow returns a window allowing depth outstanding requests.
func NewIssueWindow(depth int) *IssueWindow {
	if depth <= 0 {
		panic("dram: issue window depth must be positive")
	}
	// Retained span records all intersect the trailing depth data blocks,
	// and records are disjoint with at least one block each, so depth+2
	// slots never overflow (one partial head record, depth covered blocks,
	// the incoming record).
	return &IssueWindow{slots: make([]uint64, depth), run: RunCursor{fifo: make([]spanRec, depth+2)}}
}

// Issue is the per-block DMA issue step: the request issued at r clears
// its channel at busFree, which enters the window, and the next request
// may issue at max(r+1, gate) — gate being the clear time of the request
// issued depth ago (zero while the window is still filling).
//
//tnpu:noalloc
func (w *IssueWindow) Issue(r, busFree uint64) (next uint64) {
	i := w.idx
	w.slots[i] = busFree
	if i++; i == len(w.slots) {
		i = 0
	}
	w.idx = i
	next = r + 1
	if gate := w.slots[i]; gate > next {
		next = gate
	}
	return next
}

// Oldest returns the gate of the next issue: the clear time of the
// request issued depth ago.
func (w *IssueWindow) Oldest() uint64 { return w.slots[w.idx] }

// Push notes a request's clear time in the window without computing the
// next issue time: Issue's ring write, for a contended round that derives
// issue times itself and writes each window's final clears back in order.
func (w *IssueWindow) Push(busFree uint64) {
	w.slots[w.idx] = busFree
	if w.idx++; w.idx == len(w.slots) {
		w.idx = 0
	}
}

// Depth returns the window's outstanding-request bound.
func (w *IssueWindow) Depth() int { return len(w.slots) }

// Clears appends the window's outstanding clear times to dst, oldest
// first, so two windows that gate the next issues identically read the
// same whatever their cursor position.
func (w *IssueWindow) Clears(dst []uint64) []uint64 {
	dst = append(dst, w.slots[w.idx:]...)
	return append(dst, w.slots[:w.idx]...)
}

// NoHorizon is the horizon of an uncontended run: no other client can
// become ready, so nothing stops the run before its last block.
const NoHorizon = ^uint64(0)

// StreamRun issues up to n consecutive BlockBytes transfers starting at
// addr, gated by the issue window exactly as the per-block DMA loop does,
// and stops after the first block whose next issue time reaches horizon:
//
//	for i := 0; i < n; i++ {
//	    busFree := b.TransferAt(ready, addr+uint64(i)*BlockBytes, BlockBytes)
//	    lastIssue = ready
//	    ready = w.Issue(ready, busFree)
//	    if ready >= horizon { break }
//	}
//
// It returns the next issue-ready time, the maximum channel-clear time over
// the served blocks, the issue time of the last one, and how many it
// served. Bus and window state after the call are identical to the
// reference loop's. An unbounded run (horizon NoHorizon) that BeginRun
// admits is one data span on the window's cursor — O(window depth) instead
// of O(n) — and every other run is that loop.
func (b *Bus) StreamRun(ready, addr uint64, n int, w *IssueWindow, horizon uint64) (nextReady, maxBusFree, lastIssue uint64, served int) {
	if n <= 0 {
		return ready, 0, ready, 0
	}
	if horizon == NoHorizon {
		if cur := b.BeginRun(w, ready, n); cur != nil {
			// Appending clears only grow, so the last block's is the maximum.
			maxBusFree, lastIssue, nextReady = cur.Data(ready, n)
			cur.Commit()
			return nextReady, maxBusFree, lastIssue, n
		}
	}
	r := ready
	for served < n {
		busFree := b.route(addr+uint64(served)*BlockBytes).transfer(r, BlockBytes)
		if busFree > maxBusFree {
			maxBusFree = busFree
		}
		lastIssue = r
		r = w.Issue(r, busFree)
		if served++; r >= horizon {
			break
		}
	}
	return r, maxBusFree, lastIssue, served
}

// batchable reports whether n consecutive block transfers at or after ready
// can be served in closed form on this channel: the arithmetic cannot
// overflow, the per-block cost floor is at least one cycle, and no
// remembered idle gap could hold a minimum-cost block (gap fitting only
// gets harder as ready grows, so checking the floor at the earliest ready
// covers every block of the run).
func (c *channel) batchable(ready, n uint64) bool {
	if (n+1)*BlockBytes > (1<<62)/c.num {
		return false
	}
	if c.bq == 0 {
		return false
	}
	return !c.holdsBlock(ready)
}
