package multinpu

import (
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
)

// This file serves contended rounds (DESIGN.md §6f): stretches of a
// saturated single-channel bus where the next blocks of every gate-bound
// tenant are served in closed form instead of turn by turn.
//
// Entry. A round starts straight from the issue windows. Every tenant in
// it issues next at its oldest window slot (npu.Machine.Gated), its depth
// slots strictly increase, every slot lies at or below the channel
// horizon, and no remembered gap can hold a block (dram.Bus.BeginRound).
// Every other active tenant is frozen at its cached ready time H, which is
// a horizon for the round, not a veto.
//
// Ownership. Let the merged, sorted slots be S[0..P), P = depth*n. Each
// tenant's next issue is the clear of its own block depth back, and clears
// grow with charge order, whether or not metadata charges sit between
// them; every charge is presented at or below the horizon, so it appends.
// So the tenant that issues next is the one whose gating block was charged
// first: the owner of position q is the owner of position q-P, and the
// sorted slots give the first period's owners. Position q issues at
//
//	I(q) = S[q] for q < P,  I(q) = D(q-P) otherwise,
//
// where D(x) = C(x + M(x) + 1) is the clear of data position x, C the
// channel's telescoped clear and M(x) the metadata charges before it. The
// issue times are distinct, so the block reference picks the same owner at
// every position as long as I(q) < H.
//
// Stops. The round serves positions [0, Q), Q the first of:
//   - the position of any tenant's last block of its instruction (the
//     machine retires the instruction itself, and its next instruction's
//     start has side effects only the turn loop orders);
//   - the first q with I(q) >= H (ties with a frozen tenant rotate, which
//     the turn loop decides);
//   - an event the engine cannot serve (memprot.Rounder.Serve), and a
//     baseline minor-counter wrap.
//
// Then each window takes its tenant's last clears, the machines advance,
// the engine writes its caches back, and the channel commits Q plus the
// metadata charges at once.

// rounds is an arbiter's round state, sized once per run.
type rounds struct {
	rd    *memprot.Rounder
	bus   *dram.Bus
	depth int

	idx     []int // machine index of each round tenant
	wins    []*dram.IssueWindow
	streams []memprot.Stream
	slots   []uint64 // tenant t's slots oldest first at t*depth
	heads   []int
	first   []uint64 // S: the first period's issue times
	owner   []int32
	pat     memprot.Pattern
	cr      *dram.ChannelRun

	// The metadata-charge log: M(x) = m of the last entry with pos <= x,
	// or base below every entry. Entries more than two periods behind the
	// latest event are folded into base.
	log  []mEntry
	head int
	cnt  int
	base uint64

	served    []int
	lastFree  []uint64
	lastIssue []uint64
	dataAt    []uint64

	// skip and backoff space out entry attempts after one fails. Without
	// them 82-86% of a contended run's turns attempt an entry and fail,
	// and the default models' x2/x3 cells take about 8% longer.
	skip, backoff int
}

type mEntry struct {
	pos int64
	m   uint64
}

// maxRoundBackoff caps the turns skipped after failed entries. Caps of 4
// and 64 measured within 2% of 16 on the default models' x2/x3 cells.
const maxRoundBackoff = 16

// minRoundPeriods is the round length, in periods, below which a round
// counts as a failed entry for the backoff. Counting no round as failed
// measured about 2.5% slower on the same cells, and 8 periods no faster.
const minRoundPeriods = 4

func newRounds(machines []*npu.Machine, eng memprot.Engine, bus *dram.Bus) *rounds {
	if bus.Channels() != 1 {
		return nil
	}
	rd := memprot.NewRounder(eng)
	if rd == nil {
		return nil
	}
	n := len(machines)
	depth := machines[0].Window().Depth()
	if depth&(depth-1) != 0 {
		return nil // memprot.Pattern indexes windows by shifts
	}
	P := n * depth
	return &rounds{
		rd: rd, bus: bus, depth: depth,
		idx:       make([]int, n),
		wins:      make([]*dram.IssueWindow, n),
		streams:   make([]memprot.Stream, n),
		slots:     make([]uint64, P),
		heads:     make([]int, n),
		first:     make([]uint64, P),
		owner:     make([]int32, P),
		log:       make([]mEntry, 4*P+8), // two entries per event, two periods
		served:    make([]int, n),
		lastFree:  make([]uint64, n),
		lastIssue: make([]uint64, n),
		dataAt:    make([]uint64, n),
	}
}

// fail spaces out the next entry attempt.
func (rs *rounds) fail() bool {
	rs.skip = rs.backoff
	if rs.backoff = 2*rs.backoff + 1; rs.backoff > maxRoundBackoff {
		rs.backoff = maxRoundBackoff
	}
	return false
}

// round tries to serve one contended round and reports whether it served
// a block. A false return leaves every machine, the engine and the bus
// untouched.
//
//tnpu:noalloc
func (a *arbiter) round() bool {
	rs := a.rs
	if rs.skip > 0 {
		rs.skip--
		return false
	}
	H := noReady
	n := 0
	for i, m := range a.machines {
		r := a.ready[i]
		if r == noReady {
			continue
		}
		if m.Gated() {
			rs.idx[n] = i
			n++
		} else if r < H {
			H = r
		}
	}
	if n == 0 {
		return rs.fail()
	}
	depth := rs.depth
	P := n * depth
	maxCharges := 16
	for t := 0; t < n; t++ {
		// A round shorter than a period is not worth its set-up: each
		// tenant needs a window's worth of blocks before its last one.
		s := a.machines[rs.idx[t]].Stream()
		if s.Left < depth {
			return rs.fail()
		}
		rs.streams[t] = s
		maxCharges += 5 * s.Left // data plus at most four metadata charges
	}
	horizon := rs.bus.Now()
	slots := rs.slots[:0]
	s0 := noReady // the earliest slot: the round's first issue time
	for t := 0; t < n; t++ {
		w := a.machines[rs.idx[t]].Window()
		rs.wins[t] = w
		slots = w.Clears(slots)
		row := slots[t*depth:]
		if row[depth-1] > horizon {
			return rs.fail()
		}
		for k := 1; k < depth; k++ {
			if row[k] <= row[k-1] {
				return rs.fail()
			}
		}
		s0 = min(s0, row[0])
	}
	cr := rs.bus.BeginRound(s0, maxCharges)
	if cr == nil {
		return rs.fail()
	}
	rs.cr = cr
	// Merge the tenants' slots into the first period's issue order.
	heads := rs.heads[:n]
	for t := range heads {
		heads[t] = 0
	}
	first, owner := rs.first[:P], rs.owner[:P]
	for q := 0; q < P; q++ {
		best := -1
		var bv uint64
		for t := 0; t < n; t++ {
			if heads[t] == depth {
				continue
			}
			v := slots[t*depth+heads[t]]
			if best < 0 || v < bv {
				best, bv = t, v
			} else if v == bv {
				return rs.fail() // two gates cannot share a clear; refuse
			}
		}
		first[q], owner[q] = bv, int32(best)
		heads[best]++
	}
	if first[0] >= H {
		return rs.fail()
	}
	rs.pat.Set(owner, n, depth)
	pat := &rs.pat
	Q := int64(-1)
	for t := 0; t < n; t++ {
		if p := pat.Pos(t, rs.streams[t].Left); Q < 0 || p < Q {
			Q = p
		}
	}
	if Q < int64(P) {
		return rs.fail()
	}
	if H != noReady {
		// A lower bound on every issue time is the one without metadata
		// charges, so its stop bounds the real one.
		if Q = rs.stopBelow(H, Q); Q < int64(P) {
			return rs.fail()
		}
	}
	rs.head, rs.cnt, rs.base = 0, 0, 0

	rd := rs.rd
	rd.Begin(pat, rs.streams[:n], cr)
	var meta uint64 // metadata charges of the events served so far
	qPrev := int64(-1)
	hStopped := false
	for {
		t, i, q, ok := rd.Next()
		if !ok || q >= Q {
			break
		}
		var r uint64
		if q < int64(P) {
			r = first[q]
		} else {
			r = rs.clear(q - int64(P))
		}
		if r >= H {
			Q = rs.firstAtOrAbove(qPrev+1, q, H)
			hStopped = true
			break
		}
		before, after, ok := rd.Serve(t, i, q, r, uint64(q)+meta)
		if !ok {
			Q = q
			break
		}
		if before > 0 {
			meta += uint64(before)
			rs.push(q, meta)
		}
		if after > 0 {
			meta += uint64(after)
			rs.push(q+1, meta)
		}
		// Later queries reach back at most two periods: a tenant's last
		// block and the block that gated it.
		rs.fold(q - 2*int64(P))
		if w := rd.WrapStop(); w >= 0 && w < Q {
			Q = w
		}
		qPrev = q
	}
	if !hStopped && H != noReady && Q > 0 && rs.issue(Q-1) >= H {
		Q = rs.firstAtOrAbove(qPrev+1, Q-1, H)
	}

	// Write back: each window takes its tenant's last clears in order.
	lo := Q - int64(P)
	if lo < 0 {
		lo = 0
	}
	for x := lo; x < Q; x++ {
		rs.wins[pat.Owner(x)].Push(rs.clear(x))
	}
	for t := 0; t < n; t++ {
		k := pat.Before(t, Q)
		rs.served[t] = k
		if k > 0 {
			p := pat.Pos(t, k-1)
			rs.lastFree[t], rs.lastIssue[t] = rs.clear(p), rs.issue(p)
		}
	}
	rd.End(Q, rs.served[:n], rs.lastFree[:n], rs.lastIssue[:n], rs.dataAt[:n])
	if Q <= 0 {
		return rs.fail()
	}
	cr.Charge(int(uint64(Q) + meta))
	cr.Commit()
	for t := 0; t < n; t++ {
		if k := rs.served[t]; k > 0 {
			i := rs.idx[t]
			a.machines[i].AdvanceRound(k, rs.wins[t].Oldest(), rs.dataAt[t])
			a.ready[i] = rs.wins[t].Oldest()
		}
	}
	a.last = rs.idx[pat.Owner(Q-1)]
	// Whatever stopped the round (an instruction's last block, the horizon
	// tenant, an event it could not serve) is the next turn's, so entry
	// waits one turn. A round of a few periods backs off as a refused
	// entry does.
	if Q < minRoundPeriods*int64(P) {
		rs.fail()
		rs.skip = max(rs.skip, 1)
	} else {
		rs.skip, rs.backoff = 1, 0
	}
	return true
}

// push appends a log entry: from data position pos on, M is m.
func (rs *rounds) push(pos int64, m uint64) {
	p := rs.head + rs.cnt
	if p >= len(rs.log) {
		p -= len(rs.log)
	}
	rs.log[p] = mEntry{pos, m}
	rs.cnt++
}

// fold drops the entries no later query needs: every later query is for
// a position above below, so an entry at or below below+1 only sets the
// base for the queries before the next entry.
func (rs *rounds) fold(below int64) {
	for rs.cnt > 0 && rs.log[rs.head].pos <= below+1 {
		rs.base = rs.log[rs.head].m
		if rs.head++; rs.head == len(rs.log) {
			rs.head = 0
		}
		rs.cnt--
	}
}

// meta returns M(x): the metadata charges before data position x.
func (rs *rounds) meta(x int64) uint64 {
	lo, hi := 0, rs.cnt // entries [0, lo) have pos <= x
	for lo < hi {
		mid := (lo + hi) / 2
		p := rs.head + mid
		if p >= len(rs.log) {
			p -= len(rs.log)
		}
		if rs.log[p].pos <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return rs.base
	}
	p := rs.head + lo - 1
	if p >= len(rs.log) {
		p -= len(rs.log)
	}
	return rs.log[p].m
}

// clear is D(x), the clear time of data position x.
func (rs *rounds) clear(x int64) uint64 {
	return rs.cr.ClearAt(uint64(x) + rs.meta(x) + 1)
}

// issue is I(q), the issue time of data position q.
func (rs *rounds) issue(q int64) uint64 {
	if P := rs.pat.P; q >= P {
		return rs.clear(q - P)
	}
	return rs.first[q]
}

// firstAtOrAbove returns the first position in [lo, hi] whose issue time
// reaches h; the issue time at hi must reach it.
func (rs *rounds) firstAtOrAbove(lo, hi int64, h uint64) int64 {
	for lo < hi {
		mid := lo + (hi-lo)/2
		if rs.issue(mid) >= h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return hi
}

// stopBelow returns the first position below limit whose issue time
// would reach h if the round charged no metadata, or limit.
func (rs *rounds) stopBelow(h uint64, limit int64) int64 {
	P := rs.pat.P
	for q := int64(0); q < P && q < limit; q++ {
		if rs.first[q] >= h {
			return q
		}
	}
	if limit <= P {
		return limit
	}
	// Without metadata, issue(q) = C(q-P+1) for q >= P.
	lo, hi := uint64(1), uint64(limit-P)
	if rs.cr.ClearAt(hi) < h {
		return limit
	}
	for lo < hi {
		mid := lo + (hi-lo)/2
		if rs.cr.ClearAt(mid) >= h {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return P + int64(hi) - 1
}
