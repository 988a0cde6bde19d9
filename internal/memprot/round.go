package memprot

import (
	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/isa"
	"tnpu/internal/stats"
)

// This file is the engine side of a contended multi-NPU round
// (multinpu/round.go, DESIGN.md §6f). A round serves several tenants'
// interleaved data blocks at once, in an ownership pattern that repeats
// every period of P = depth*n blocks, with every charge appending at the
// channel horizon. Plain blocks are channel arithmetic and never reach
// the engine. The engine resolves the events — the blocks that open a
// metadata line — in position order, each through the cache's timestamp
// form (cache.Stamps), and reports the metadata charges each one adds to
// the merged charge stream:
//
//   - tnpu: MAC lines;
//   - baseline: MAC lines, and counter lines under ctrSimple's conditions
//     (resident, or a miss verified by a resident level-1 node, whose
//     dirty victim's parent is resident too), except that the walk MSHR
//     need only be free by the time the fetch is charged at the horizon.
//     Minor counters are bumped in bulk, and a block whose bump would
//     wrap ends the round before it;
//   - unsecure and encrypt-only: none.
//
// An event the round cannot serve (a charge that would land above the
// horizon, a line another tenant holds open, or a miss whose victim is a
// line another tenant holds open) ends the round before it, with nothing
// touched.

// Pattern is a round's ownership pattern: which tenant owns each of the P
// data positions of a period, and every tenant's depth positions in it.
// Position q of the round's merged data stream is period q/P, offset
// q%P, and tenant t's i-th block sits at Pos(t, i).
type Pattern struct {
	P     int64
	shift uint    // log2 of depth
	owner []int32 // owner of each offset
	pos   []int32 // tenant t's k-th offset at t<<shift+k
	rank  []int32 // t's offsets below o at t*(P+1)+o
}

// Set builds the pattern from one period's owner sequence for n tenants
// that each own depth offsets; depth must be a power of two.
func (p *Pattern) Set(owner []int32, n, depth int) {
	P := len(owner)
	p.P, p.shift = int64(P), 0
	for 1<<p.shift < depth {
		p.shift++
	}
	p.owner = append(p.owner[:0], owner...)
	if cap(p.pos) < n*depth {
		p.pos = make([]int32, n*depth) //tnpu:allocok (sized once per tenant count)
	}
	p.pos = p.pos[:n*depth]
	if cap(p.rank) < n*(P+1) {
		p.rank = make([]int32, n*(P+1)) //tnpu:allocok (sized once per tenant count)
	}
	p.rank = p.rank[:n*(P+1)]
	for t := 0; t < n; t++ {
		k := 0
		row := p.rank[t*(P+1) : (t+1)*(P+1)]
		for o := 0; o < P; o++ {
			row[o] = int32(k)
			if int(owner[o]) == t {
				p.pos[t*depth+k] = int32(o)
				k++
			}
		}
		row[P] = int32(k)
	}
}

// Owner returns the tenant that owns position q.
func (p *Pattern) Owner(q int64) int { return int(p.owner[q%p.P]) }

// Pos returns the position of tenant t's i-th block of the round.
func (p *Pattern) Pos(t, i int) int64 {
	mask := 1<<p.shift - 1
	return int64(i>>p.shift)*p.P + int64(p.pos[t<<p.shift+i&mask])
}

// Before returns how many of tenant t's blocks sit below position q: the
// index of its first block at or after q.
func (p *Pattern) Before(t int, q int64) int {
	period := q / p.P
	return int(period)<<p.shift + int(p.rank[t*int(p.P+1)+int(q-period*p.P)])
}

// Stream is one tenant's place in its DMA instruction at a round's start:
// the instruction's segments, the segment and block it issues next, the
// blocks left before the instruction's last one, and its direction.
// Addresses are the machine's own; Off relocates them to its context.
type Stream struct {
	Segs  []isa.Segment
	Seg   int
	Addr  uint64 // next block's address
	End   uint64 // current segment's end
	Off   uint64
	Left  int
	Write bool
}

// Rounder is an engine's side of contended rounds. A run reuses one for
// every round, so steady-state rounds allocate nothing.
type Rounder struct {
	scheme Scheme
	cfg    *Config
	tl     *treeless // non-nil for tnpu
	bl     *baseline // non-nil for baseline

	traffic *stats.Traffic
	cr      *dram.ChannelRun
	pat     *Pattern
	ten     []rtenant
	macS    cache.Stamps
	ctrS    cache.Stamps
	wrapAt  int64
	// period*P + off is the position of the access being served; last
	// answers the stamps' questions about it.
	period int64
	off    int
	last   func(owner int) int64
}

// rtenant is one tenant's walk state.
type rtenant struct {
	cur     streamCur
	left    int
	write   bool
	macNext int   // next block that accesses the MAC cache as an event
	ctrNext int   // next block that accesses the counter cache as an event
	next    int   // min(macNext, ctrNext)
	nextPos int64 // its position, or -1 when at or past left
	dataAt  uint64
	// Baseline writes: minors bumps are deferred per counter-line visit.
	minorFrom int
	minorLine *[integrity.Arity]uint8
	minorSlot int
}

// noEvent marks a tenant with no further event.
const noEvent = int(^uint(0) >> 1)

// streamCur walks a tenant's blocks forward across segment ends.
type streamCur struct {
	segs []isa.Segment
	seg  int
	i0   int    // tenant block index of the current segment's first block
	a0   uint64 // its relocated address
	n    int    // the segment's blocks from i0
	off  uint64
}

// at returns block i's relocated address and how many blocks of its
// segment remain from it; i must not be below the last block asked for.
func (c *streamCur) at(i int) (addr uint64, rest int) {
	for i >= c.i0+c.n {
		c.i0 += c.n
		c.seg++
		s := c.segs[c.seg]
		a := s.Addr &^ (dram.BlockBytes - 1)
		c.a0 = a + c.off
		c.n = int((s.Addr + s.Bytes - a + dram.BlockBytes - 1) / dram.BlockBytes)
	}
	return c.a0 + uint64(i-c.i0)*dram.BlockBytes, c.i0 + c.n - i
}

// NewRounder returns a round walk over one of this package's engines, or
// nil for any other Engine (the attack harness's wrappers keep the turn
// loop) and for a baseline whose streaks' guaranteed-hit reasoning does
// not hold (batchSafe). A multi-NPU run takes one and reuses it for every
// round.
func NewRounder(e Engine) *Rounder {
	switch e := e.(type) {
	case *unsecure:
		return &Rounder{scheme: Unsecure, cfg: &e.cfg, traffic: &e.traffic}
	case *encryptOnly:
		return &Rounder{scheme: EncryptOnly, cfg: &e.cfg, traffic: &e.traffic}
	case *treeless:
		return &Rounder{scheme: TreeLess, cfg: &e.cfg, tl: e, traffic: &e.traffic}
	case *baseline:
		if e.batchSafe() {
			return &Rounder{scheme: Baseline, cfg: &e.cfg, bl: e, traffic: &e.traffic}
		}
	}
	return nil
}

// plainRead is a read block's dataAt when none of its metadata lines
// opens: every cached line resolves at the issue time.
func (rd *Rounder) plainRead(busFree, issue uint64) uint64 {
	cfg := rd.cfg
	lat := cfg.Bus.Latency()
	switch rd.scheme {
	case EncryptOnly:
		return busFree + lat + cfg.XTSCycles
	case TreeLess:
		return max64(busFree+lat+cfg.XTSCycles, issue) + cfg.MACCycles
	case Baseline:
		d := max64(busFree+lat, issue+cfg.OTPCycles)
		return max64(d+cfg.XORCycles, issue) + cfg.MACCycles
	}
	return busFree + lat
}

// Begin starts a round for the tenants' streams over pat, whose charges
// go through cr.
func (rd *Rounder) Begin(pat *Pattern, streams []Stream, cr *dram.ChannelRun) {
	n := len(streams)
	rd.pat, rd.cr = pat, cr
	if cap(rd.ten) < n {
		rd.ten = make([]rtenant, n) //tnpu:allocok (sized once per tenant count)
	}
	rd.ten = rd.ten[:n]
	if rd.last == nil {
		rd.last = rd.lastPos //tnpu:allocok (once per Rounder)
	}
	rd.wrapAt = -1
	for t := range streams {
		s := &streams[t]
		a := s.Addr
		rd.ten[t] = rtenant{
			cur:   streamCur{segs: s.Segs, seg: s.Seg, a0: a + s.Off, n: int((s.End - a + dram.BlockBytes - 1) / dram.BlockBytes), off: s.Off},
			left:  s.Left,
			write: s.Write,
		}
		if rd.tl == nil && rd.bl == nil {
			rd.ten[t].macNext = noEvent
		}
		if rd.bl == nil {
			rd.ten[t].ctrNext = noEvent
		}
	}
	for t := range rd.ten {
		rd.schedule(t)
	}
	if rd.tl != nil {
		rd.macS.Begin(rd.tl.mac, n, rd.last)
	}
	if rd.bl != nil {
		rd.macS.Begin(rd.bl.mac, n, rd.last)
		rd.ctrS.Begin(rd.bl.counter, n, rd.last)
	}
}

// Next returns the earliest pending event: its tenant, block index and
// position, or ok false when no tenant has one before its last block.
func (rd *Rounder) Next() (t, i int, q int64, ok bool) {
	q = -1
	for u := range rd.ten {
		if p := rd.ten[u].nextPos; p >= 0 && (q < 0 || p < q) {
			t, q = u, p
		}
	}
	if q < 0 {
		return 0, 0, 0, false
	}
	return t, rd.ten[t].next, q, true
}

// schedule recomputes tenant t's next event and its position.
func (rd *Rounder) schedule(t int) {
	tn := &rd.ten[t]
	e := tn.macNext
	if tn.ctrNext < e {
		e = tn.ctrNext
	}
	tn.next, tn.nextPos = e, -1
	if e < tn.left {
		tn.nextPos = rd.pat.Pos(t, e)
	}
}

// at notes the position of the access being served for the stamps.
func (rd *Rounder) at(q int64) {
	rd.period = q / rd.pat.P
	rd.off = int(q - rd.period*rd.pat.P)
}

// prevPos is the position of tenant t's block before block i, or -1 for
// its first block of the round (which has no line open to close).
func (rd *Rounder) prevPos(t, i int) int64 {
	if i == 0 {
		return -1
	}
	return rd.pat.Pos(t, i-1)
}

// lastPos returns tenant u's last block position before the access being
// served: every line u holds open was last accessed there.
func (rd *Rounder) lastPos(u int) int64 {
	p := rd.pat
	k := int(rd.period)<<p.shift + int(p.rank[u*int(p.P+1)+rd.off])
	return p.Pos(u, k-1)
}

// WrapStop returns the first position whose baseline minor-counter bump
// would wrap, among the counter-line visits opened so far, or -1.
func (rd *Rounder) WrapStop() int64 { return rd.wrapAt }

// Serve resolves tenant t's event block i at position q, issued at r,
// whose first charge has index j in the round. It returns the metadata
// charges the block adds before and after its data charge, or ok false —
// with nothing touched — when the round must stop before the block.
func (rd *Rounder) Serve(t, i int, q int64, r, j uint64) (before, after int, ok bool) {
	tn := &rd.ten[t]
	rd.at(q)
	addr, rest := tn.cur.at(i)
	isMac, isCtr := i == tn.macNext, i == tn.ctrNext
	cfg := rd.cfg
	var mac cache.Way
	var macLine uint64
	if isMac {
		macLine = macLineAddr(addr, cfg.MACSlotBytes)
		if mac = rd.macS.Find(macLine, t); mac.Conflict() {
			return 0, 0, false
		}
	}
	if rd.bl != nil {
		before, after, ok = rd.serveBaseline(t, tn, i, r, j, addr, rest, isMac, isCtr, mac, macLine)
		if ok {
			rd.schedule(t)
		}
		return before, after, ok
	}
	// tnpu: data then MAC writeback and fetch on reads; writeback then
	// data on writes (the write path allocates without fetching).
	res := rd.macS.Take(mac, macLine, tn.write, t, rd.prevPos(t, i))
	tn.macNext = i + minInt(macRunLen(addr, cfg.MACSlotBytes), rest)
	rd.schedule(t)
	wb := 0
	if res.Writeback {
		rd.traffic.AddWrite(stats.MAC, dram.BlockBytes)
		wb = 1
	}
	if tn.write {
		if d := rd.cr.ClearAt(j + uint64(wb) + 1); d > tn.dataAt {
			tn.dataAt = d
		}
		return wb, 0, true
	}
	lat := cfg.Bus.Latency()
	macAt := r
	after = wb
	if !res.Hit {
		rd.traffic.AddRead(stats.MAC, dram.BlockBytes)
		after++
		macAt = rd.cr.ClearAt(j+uint64(after)+1) + lat
	}
	if d := max64(rd.cr.ClearAt(j+1)+lat+cfg.XTSCycles, macAt) + cfg.MACCycles; d > tn.dataAt {
		tn.dataAt = d
	}
	return 0, after, true
}

// serveBaseline is Serve for the baseline engine: ReadBlock's charge
// order (data, counter writeback and fetch, MAC writeback and fetch) or
// WriteBlock's (counter writeback and fetch, MAC writeback and RMW fetch,
// data).
func (rd *Rounder) serveBaseline(t int, tn *rtenant, i int, r, j, addr uint64, rest int, isMac, isCtr bool, mac cache.Way, macLine uint64) (before, after int, ok bool) {
	b := rd.bl
	cfg := rd.cfg
	var lineIdx, ctrLine uint64
	var slot, ctrRun int
	var ctr cache.Way
	if isCtr {
		lineIdx, slot = b.geo.CounterIndex(addr / dram.BlockBytes)
		ctrLine = b.geo.NodeAddr(0, lineIdx)
		ctrRun = minInt(int(cfg.TreeArity)-slot, rest)
		// ctrSimple's conditions, on the round's view of the counter cache:
		// a miss must charge only a victim writeback and one fetch, both
		// appended at the issue time.
		if ctr = rd.ctrS.Find(ctrLine, t); ctr.Conflict() {
			return 0, 0, false
		}
		if !ctr.Hit() {
			if cfg.CounterPrefetch {
				return 0, 0, false
			}
			// The walk starts once a walk MSHR frees up; its fetch must
			// still be presented at or below the horizon it lands on, the
			// clear of the charges before it.
			victim, dirty := rd.ctrS.DirtyVictim(ctr)
			kFetch := j
			if !tn.write {
				kFetch++ // after the data charge
			}
			if dirty {
				kFetch++ // after the victim writeback
			}
			if start := max64(r, minWalkFree(b.walkFree)); start > rd.cr.ClearAt(kFetch) {
				return 0, 0, false
			}
			if b.geo.Levels() > 1 {
				pIdx, _ := b.geo.Parent(lineIdx)
				if !b.hash.Probe(b.geo.NodeAddr(1, pIdx)) {
					return 0, 0, false
				}
				if dirty {
					vIdx := (victim - integrity.CounterBase) / integrity.NodeBytes
					vp, _ := b.geo.Parent(vIdx)
					if !b.hash.Probe(b.geo.NodeAddr(1, vp)) {
						return 0, 0, false
					}
				}
			}
		}
		if tn.write {
			// Close the previous visit (its blocks are all served), then
			// find the first block of this one whose bump would wrap.
			rd.bumpVisit(tn, i)
			tn.minorLine = b.minorLineOf(lineIdx)
			tn.minorSlot = slot
			for k := 0; k < ctrRun; k++ {
				if tn.minorLine[slot+k] == 1<<7-1 {
					if k == 0 {
						return 0, 0, false
					}
					if p := rd.pat.Pos(t, i+k); rd.wrapAt < 0 || p < rd.wrapAt {
						rd.wrapAt = p
					}
					break
				}
			}
		}
	}
	k := j // next charge index
	if !tn.write {
		k++ // the data charge comes first
	}
	counterAt := r
	if isCtr {
		res := rd.ctrS.Take(ctr, ctrLine, tn.write, t, rd.prevPos(t, i))
		tn.ctrNext = i + ctrRun
		if res.Writeback {
			b.traffic.AddWrite(stats.Counter, dram.BlockBytes)
			k++
			b.touchParent(r, res.WritebackAddr, 0) // resident parent: a hit
		}
		if !res.Hit {
			slotW := 0
			for w, f := range b.walkFree {
				if f < b.walkFree[slotW] {
					slotW = w
				}
			}
			b.traffic.AddRead(stats.Counter, dram.BlockBytes)
			k++
			counterAt = rd.cr.ClearAt(k) + cfg.Bus.Latency()
			if b.geo.Levels() > 1 {
				pIdx, _ := b.geo.Parent(lineIdx)
				b.hash.Access(b.geo.NodeAddr(1, pIdx), false) // resident: a hit
			}
			b.walkFree[slotW] = counterAt
		}
	}
	macAt := r
	if isMac {
		res := rd.macS.Take(mac, macLine, tn.write, t, rd.prevPos(t, i))
		tn.macNext = i + minInt(macRunLen(addr, cfg.MACSlotBytes), rest)
		if res.Writeback {
			b.traffic.AddWrite(stats.MAC, dram.BlockBytes)
			k++
		}
		if !res.Hit {
			b.traffic.AddRead(stats.MAC, dram.BlockBytes)
			k++
			macAt = rd.cr.ClearAt(k) + cfg.Bus.Latency()
		}
	}
	if tn.write {
		before = int(k - j)
		if d := max64(rd.cr.ClearAt(k+1), counterAt); d > tn.dataAt {
			tn.dataAt = d
		}
		return before, 0, true
	}
	d := max64(rd.cr.ClearAt(j+1)+cfg.Bus.Latency(), counterAt+cfg.OTPCycles)
	if d = max64(d+cfg.XORCycles, macAt) + cfg.MACCycles; d > tn.dataAt {
		tn.dataAt = d
	}
	return 0, int(k - j - 1), true
}

// minWalkFree returns the earliest time a walk MSHR frees up.
func minWalkFree(walkFree []uint64) uint64 {
	m := walkFree[0]
	for _, f := range walkFree[1:] {
		if f < m {
			m = f
		}
	}
	return m
}

// bumpVisit bumps the minor counters of tenant tn's blocks from the open
// visit's first unbumped block up to block i.
func (rd *Rounder) bumpVisit(tn *rtenant, i int) {
	if tn.minorLine != nil {
		for k := 0; k < i-tn.minorFrom; k++ {
			tn.minorLine[tn.minorSlot+k]++
		}
	}
	tn.minorFrom = i
}

// End finishes a round that served positions [0, end): served[t] blocks
// of each tenant, the last of them cleared at lastFree[t] and issued at
// lastIssue[t]. It writes the caches and minor counters back, charges the
// data traffic, and returns each tenant's maximum dataAt over its served
// blocks in dataAt.
func (rd *Rounder) End(end int64, served []int, lastFree, lastIssue, dataAt []uint64) {
	var total uint64
	for t := range rd.ten {
		tn := &rd.ten[t]
		k := served[t]
		total += uint64(k)
		if tn.write {
			rd.traffic.AddWrite(stats.Data, uint64(k)*dram.BlockBytes)
			if rd.bl != nil {
				rd.bumpVisit(tn, k)
			}
			dataAt[t] = max64(tn.dataAt, lastFree[t]) // writes complete at their bus clear
		} else {
			rd.traffic.AddRead(stats.Data, uint64(k)*dram.BlockBytes)
			dataAt[t] = max64(tn.dataAt, rd.plainRead(lastFree[t], lastIssue[t]))
		}
		if k == 0 {
			dataAt[t] = 0
		}
	}
	// The stamps ask for the tenants' last blocks before the end.
	rd.at(end)
	if rd.tl != nil {
		rd.macS.End(total)
	}
	if rd.bl != nil {
		rd.macS.End(total)
		rd.ctrS.End(total)
	}
}
