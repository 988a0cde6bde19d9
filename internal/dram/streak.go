package dram

// This file is the bus model's one closed form: the run cursor. It lets a
// caller charge an arbitrary interleaving of data blocks (issue-window
// gated) and metadata blocks (writebacks, line fetches, tree-walk reads)
// against one channel in append-only closed form, committing the aggregate
// channel update and the issue-window ring once at the end. StreamRun's
// pure data run is the one-span special case. Three identities carry the
// equivalence to per-block service (DESIGN.md sections 6c and 6d):
//
//   - Append invariant, proven at BeginRun. With a single channel, a
//     per-block cost floor of at least one cycle, no remembered idle gap
//     that can hold a minimum-cost block, and every issue-window slot at or
//     below the start horizon clear0 = max(ready, busyUntil), every charge
//     of the run is presented at or below the current horizon and therefore
//     appends: by induction the i-th data block's issue time r_i satisfies
//     r_i <= C(i) (its gate is either a pre-run slot <= clear0 or an
//     earlier block's clear, and consecutive data clears differ by >= 1
//     cycle), and metadata charges are presented at the issue time of an
//     already-charged data boundary. The reference loop would thus never
//     record a mid-run gap nor backfill one, so skipping both reproduces
//     its channel state exactly. Remainder telescoping then makes the
//     clear of the run's j-th charge pure arithmetic:
//
//     C(j) = clear0 + j*q + (j*rr + rem0) / den
//
//   - Generalized two-term collapse. Past the window prologue (the first
//     depth data blocks, whose gates are pre-run ring entries and take the
//     exact per-block step), every gate is an in-run data clear. For ANY
//     interleaving of data spans and metadata charges the per-block issue
//     recursion r_i = max(r_{i-1}+1, D(g_i - depth)) unrolls across span
//     boundaries to
//     lastIssue = max(r0 + k - 1, D(gEnd - 1 - depth))
//     nextR     = max(lastIssue + 1, D(gEnd - depth))
//     because consecutive data clears differ by at least one cycle
//     (interleaved metadata only widens the difference). D(g) is the clear
//     time of the g-th data block, i.e. C at its charge index.
//   - Charge-index bookkeeping. D(g) needs the charge index of data block
//     g, which depends on how data and metadata interleaved. Gate queries
//     only ever reach back depth data blocks, so a short FIFO of span
//     records — first data index, charge index, period shape — answers
//     them in O(1) amortized, and the window ring is written once, at
//     Commit, with the clears of the final depth data blocks: the only
//     entries the reference loop would leave behind.

// ChannelRun is the channel half of a closed-form run: it appends charges
// at one channel's horizon, answers C(j) for any charge index, and writes
// the telescoped aggregate back to the channel once. A streak holds one
// inside its window's RunCursor; a contended round (Bus.BeginRound) holds
// the bus's own and keeps the n windows' halves itself.
type ChannelRun struct {
	ch     *channel
	ready0 uint64 // presented ready time of the first charge
	b0     uint64 // channel horizon at admission
	q      uint64 // whole cycles per block: BlockBytes*num/den (>= 1)
	rr     uint64 // per-block remainder numerator: BlockBytes*num%den
	den    uint64
	rem0   uint64 // carried remainder at admission
	clear0 uint64 // start horizon max(ready0, b0): C(0)
	remAcc uint64 // carried remainder after the charges so far, < den
	clear  uint64 // horizon after the charges so far: C(j)
	j      uint64 // total charges (blocks) so far
}

// begin primes the channel half for a run whose first charge is
// presented at ready.
func (cr *ChannelRun) begin(c *channel, ready uint64) {
	start0 := c.busyUntil
	if ready > start0 {
		start0 = ready
	}
	// Field stores rather than a composite literal: this runs once per
	// streamed run, and a whole-struct copy costs more than the run.
	cr.ch = c
	cr.ready0, cr.b0 = ready, c.busyUntil
	cr.q, cr.rr, cr.den = c.bq, c.br, c.den
	cr.rem0, cr.remAcc = c.rem, c.rem
	cr.clear0, cr.clear = start0, start0
	cr.j = 0
}

// RunCursor accumulates one run's charges against a single channel. Each
// IssueWindow owns one, and only BeginRun hands it out, primed. Between
// BeginRun and Commit the caller must route every bus charge through the
// cursor; Commit then writes the telescoped aggregate back as if each
// charge had gone through channel.transfer individually. The channel half
// is a ChannelRun; the rest is the window half: the span-record FIFO
// that answers D(g) and the ring write at Commit.
type RunCursor struct {
	ChannelRun
	w    *IssueWindow
	idx0 int    // w.idx at BeginRun
	g    uint64 // data blocks charged so far
	fifo []spanRec
	head int // ring index of the oldest record
	cnt  int // live records
	look int // monotone query cursor, offset from head
}

// spanRec maps a contiguous range of data-block indices to charge indices.
// The range holds n data blocks grouped in periods of m, each period
// preceded by lead and followed by trail metadata charges; a plain span is
// the single-period case (m == n, lead == trail == 0).
type spanRec struct {
	g     uint64 // first data block index covered
	j     uint64 // charges before the record's first period
	n     uint64 // total data blocks covered
	m     uint32 // data blocks per period
	lead  uint32 // metadata charges before each period's data
	trail uint32 // metadata charges after each period's data
}

// BeginRun validates the append invariant for a run of at most maxBlocks
// block charges presented at or after ready, and returns w's cursor primed
// for the run. On nil no state was touched and the caller must use the
// per-block or per-line path. maxBlocks only bounds overflow, so a
// generous upper bound (data plus worst-case metadata) is fine. It is the
// only way to obtain a cursor, so every closed-form bus path holds one
// only for a run this predicate admitted.
func (b *Bus) BeginRun(w *IssueWindow, ready uint64, maxBlocks int) *RunCursor {
	if len(b.chans) != 1 || maxBlocks <= 0 {
		return nil
	}
	c := &b.chans[0]
	if !c.batchable(ready, uint64(maxBlocks)) {
		return nil
	}
	start0 := c.busyUntil
	if ready > start0 {
		start0 = ready
	}
	// Window slots hold clear times of past transfers on this channel, so
	// they never exceed the horizon; the explicit check keeps the append
	// proof local rather than resting on every caller's history.
	for _, s := range w.slots {
		if s > start0 {
			return nil
		}
	}
	cur := &w.run
	cur.begin(c, ready)
	cur.w = w
	cur.idx0 = w.idx
	cur.g = 0
	cur.head, cur.cnt, cur.look = 0, 0, 0
	return cur
}

// BeginRound admits a contended round on a single-channel bus: at most
// maxCharges block charges, the first presented at ready (the earliest
// issue time of the round), every later one presented later but at or
// below the horizon. It checks what BeginRun checks of the channel (one
// channel, a rate with a cost floor of at least one cycle, no overflow,
// and no remembered gap that can hold a block at ready) and returns the
// bus's own channel half, primed; the caller keeps the windows. On nil
// nothing was touched.
func (b *Bus) BeginRound(ready uint64, maxCharges int) *ChannelRun {
	if len(b.chans) != 1 || maxCharges <= 0 {
		return nil
	}
	c := &b.chans[0]
	if !c.batchable(ready, uint64(maxCharges)) {
		return nil
	}
	b.round.begin(c, ready)
	return &b.round
}

// Charge appends k charges, each presented at or below the horizon, at the
// horizon; k == 1 is division-free.
func (cur *ChannelRun) Charge(k int) {
	cur.j += uint64(k)
	if k == 1 {
		cur.remAcc += cur.rr
		cur.clear += cur.q
		if cur.remAcc >= cur.den {
			cur.remAcc -= cur.den
			cur.clear++
		}
		return
	}
	t := uint64(k)*cur.rr + cur.remAcc
	cur.clear += uint64(k)*cur.q + t/cur.den
	cur.remAcc = t % cur.den
}

// ClearAt is C(j): the channel horizon after the run's first j charges.
// Exact by remainder telescoping; overflow is excluded by the batchable
// check at admission (j never exceeds the admitted charge bound).
func (cur *ChannelRun) ClearAt(j uint64) uint64 {
	return cur.clear0 + j*cur.q + (j*cur.rr+cur.rem0)/cur.den
}

// push records a data range, dropping records that can no longer be
// queried (entirely below the gate window after this record lands).
func (cur *RunCursor) push(rec spanRec) {
	depth := uint64(len(cur.w.slots))
	if end := rec.g + rec.n; end > depth {
		// The oldest query after this record lands is for data block
		// end-1-depth, so records whose last block is below that may drop.
		min := end - depth
		for cur.cnt > 0 {
			h := &cur.fifo[cur.head]
			if h.g+h.n >= min {
				break
			}
			cur.head++
			if cur.head == len(cur.fifo) {
				cur.head = 0
			}
			cur.cnt--
			if cur.look > 0 {
				cur.look--
			}
		}
	}
	p := cur.head + cur.cnt
	if p >= len(cur.fifo) {
		p -= len(cur.fifo)
	}
	cur.fifo[p] = rec
	cur.cnt++
}

// dataClear is D(g): the clear time of the g-th data block (0-indexed).
// Queries are non-decreasing across calls, so a persistent cursor walks
// the FIFO in O(1) amortized; a backward query resets it (never happens on
// the hot path).
func (cur *RunCursor) dataClear(g uint64) uint64 {
	for {
		p := cur.head + cur.look
		if p >= len(cur.fifo) {
			p -= len(cur.fifo)
		}
		rec := &cur.fifo[p]
		if g < rec.g {
			if cur.look == 0 {
				panic("dram: RunCursor gate query below retained records")
			}
			cur.look = 0
			continue
		}
		if off := g - rec.g; off < rec.n {
			return cur.ClearAt(rec.charge(off))
		}
		cur.look++
		if cur.look >= cur.cnt {
			panic("dram: RunCursor gate query above recorded data blocks")
		}
	}
}

// charge is the run charge count through the record's data block at
// offset off, so that the block's clear time is C(charge).
func (rec *spanRec) charge(off uint64) uint64 {
	if rec.lead == 0 && rec.trail == 0 {
		// No metadata between the record's data blocks: their charges are
		// consecutive whatever the period.
		return rec.j + off + 1
	}
	period, o := off/uint64(rec.m), off%uint64(rec.m)
	return rec.j + period*uint64(rec.m+rec.lead+rec.trail) + uint64(rec.lead) + o + 1
}

// collapse is the two-term collapse for a span of k data blocks entered at
// issue time r and ending past the window prologue: it returns the issue
// time of the span's last block and the issue time of the block after it.
func (cur *RunCursor) collapse(r, k uint64) (lastIssue, nextR uint64) {
	depth := uint64(len(cur.w.slots))
	lastIssue = r + k - 1
	if gl := cur.dataClear(cur.g - 1 - depth); gl > lastIssue {
		lastIssue = gl
	}
	nextR = lastIssue + 1
	if ng := cur.dataClear(cur.g - depth); ng > nextR {
		nextR = ng
	}
	return lastIssue, nextR
}

// Meta appends k metadata block charges at the horizon and returns the new
// horizon (the clear time of the last of the k blocks). Their presented
// ready time — the current boundary's issue time — is at or below the
// horizon by the append invariant and therefore never affects channel
// state.
func (cur *RunCursor) Meta(k int) uint64 {
	cur.Charge(k)
	return cur.clear
}

// Data appends k issue-window-gated data blocks presented starting at
// issue time r and returns the last block's clear time, its issue time,
// and the next issue time, in O(1) past the window prologue. Prologue
// blocks take the exact per-block issue step, whose gates are pre-run ring
// entries; they are read, not written, because Commit writes the ring.
func (cur *RunCursor) Data(r uint64, k int) (lastFree, lastIssue, nextR uint64) {
	if depth := len(cur.w.slots); cur.g < uint64(depth) {
		pre := depth - int(cur.g)
		if pre > k {
			pre = k
		}
		cur.push(spanRec{g: cur.g, j: cur.j, n: uint64(pre), m: uint32(pre)})
		// Block g's clear would land in slot idx0+g; the next block's gate
		// is the slot after it.
		pos := (cur.idx0 + int(cur.g)) % depth
		for i := 0; i < pre; i++ {
			lastIssue = r
			if pos++; pos == depth {
				pos = 0
			}
			if r++; cur.w.slots[pos] > r {
				r = cur.w.slots[pos]
			}
		}
		cur.Charge(pre)
		cur.g += uint64(pre)
		if cur.g == uint64(depth) {
			// The block after the prologue is gated by block 0's clear,
			// which the reference loop would have written to the slot the
			// last step read.
			r = lastIssue + 1
			if d0 := cur.dataClear(0); d0 > r {
				r = d0
			}
		}
		if k -= pre; k == 0 {
			return cur.clear, lastIssue, r
		}
	}
	cur.push(spanRec{g: cur.g, j: cur.j, n: uint64(k), m: uint32(k)})
	cur.Charge(k)
	cur.g += uint64(k)
	lastIssue, nextR = cur.collapse(r, uint64(k))
	return cur.clear, lastIssue, nextR
}

// DataPeriodic appends `periods` repetitions of [lead metadata charges,
// m data blocks, trail metadata charges] in O(1) — the uniform-stretch
// collapse the protection engines use once a cold cache sweep has entered
// steady-state turnover (every line misses with the same writeback
// pattern). r is the issue time entering the first period's data span.
// Returns the FINAL period's last data-block clear, its issue time, and
// the next issue time; the horizon after the final trailing metadata is
// Horizon(). ok is false — with no state touched — when the cursor is
// still in its window prologue, where per-block gates are not yet
// arithmetic.
func (cur *RunCursor) DataPeriodic(r uint64, periods, m, lead, trail int) (lastFree, lastIssue, nextR uint64, ok bool) {
	if cur.g < uint64(len(cur.w.slots)) || periods <= 0 || m <= 0 {
		return 0, 0, 0, false
	}
	totalData := uint64(periods) * uint64(m)
	cur.push(spanRec{g: cur.g, j: cur.j, n: totalData, m: uint32(m), lead: uint32(lead), trail: uint32(trail)})
	cur.Charge(periods * (m + lead + trail))
	cur.g += totalData
	lastIssue, nextR = cur.collapse(r, totalData)
	return cur.dataClear(cur.g - 1), lastIssue, nextR, true
}

// Horizon returns the clear time of the cursor's last charge (the start
// horizon before any charge).
func (cur *ChannelRun) Horizon() uint64 { return cur.clear }

// Commit materializes the deferred window state — the ring holds the
// clears of the final min(g, depth) data blocks at the positions the
// reference loop would have written them — and writes the accumulated
// charges back to the channel as one telescoped aggregate: byte,
// busy-cycle, remainder, gap, and horizon state identical to per-block
// service. A cursor with no charges commits as a no-op (the reference
// would not have touched the bus either).
func (cur *RunCursor) Commit() {
	if cur.j == 0 {
		return
	}
	if w, depth := cur.w, uint64(len(cur.w.slots)); cur.g > 0 {
		// Retained records cover the final min(g, depth) data blocks,
		// oldest first.
		start := uint64(0)
		if cur.g > depth {
			start = cur.g - depth
		}
		pos := int((uint64(cur.idx0) + start) % depth)
		for i := 0; i < cur.cnt; i++ {
			p := cur.head + i
			if p >= len(cur.fifo) {
				p -= len(cur.fifo)
			}
			rec := &cur.fifo[p]
			off := uint64(0)
			if start > rec.g {
				off = start - rec.g
			}
			for ; off < rec.n; off++ {
				w.slots[pos] = cur.ClearAt(rec.charge(off))
				if pos++; pos == len(w.slots) {
					pos = 0
				}
			}
		}
		w.idx = pos
	}
	cur.ChannelRun.Commit()
}

// Commit writes the run's charges back to the channel as one telescoped
// aggregate: byte, busy-cycle, remainder, gap, and horizon state identical
// to per-block service. A run with no charges commits as a no-op.
func (cur *ChannelRun) Commit() {
	if cur.j == 0 {
		return
	}
	c := cur.ch
	c.rem = cur.remAcc
	c.bytesMoved += cur.j * BlockBytes
	if cur.ready0 > cur.b0 {
		// The first charge skipped over an idle window, as in the reference.
		c.recordGap(cur.b0, cur.ready0)
	}
	c.busyCycles += cur.clear - cur.clear0
	c.busyUntil = cur.clear
	cur.j = 0
}
