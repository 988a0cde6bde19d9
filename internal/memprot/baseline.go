package memprot

import (
	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/stats"
)

// baseline models the conventional tree-based protection: counter-mode
// encryption whose per-block counters are verified by the SC-64 counter
// tree (Fig. 1). A counter-cache miss triggers a serialized walk up the
// tree — fetching each missing node from DRAM — until a cached (hence
// verified) node or the on-chip root is reached. This walk is the
// performance bottleneck the paper measures in Fig. 4/5.
type baseline struct {
	cfg     Config
	geo     integrity.Geometry //tnpu:canonskip derived from cfg at construction, immutable
	counter *cache.Cache
	hash    *cache.Cache
	mac     *cache.Cache
	traffic stats.Traffic
	// walkFree holds the completion times of the engine's in-flight tree
	// walks (one per MSHR). A counter miss claims the earliest-free slot;
	// when every slot is busy the walk — and the block depending on it —
	// queues behind the oldest. The MSHRs are shared by all NPUs
	// (Sec. V-C: one security engine), which is what makes baseline
	// metadata handling degrade as NPU count grows.
	walkFree []uint64

	// minors tracks the SC-64 7-bit minor counters of touched lines so
	// minor overflow triggers the split-counter maintenance cost: the
	// major bumps and all 64 covered blocks are re-encrypted under fresh
	// counters (Yan et al.) — a 64-block read+write burst.
	minors    map[uint64]*[integrity.Arity]uint8
	Overflows uint64

	// Layer-memoization bookkeeping (canon.go): minorsDig is the 128-bit
	// wrapping-sum digest standing in for the minors map inside layer
	// canons, and touched/touchedLi journal the counter lines mutated in
	// the current layer for O(touched) post-state deltas. All three are
	// maintained only once BeginLayer arms memoOn, so un-memoized runs pay
	// a predicted-not-taken branch per counter-line touch and nothing more.
	memoOn    bool //tnpu:canonskip memo-harness arming flag, managed by BeginLayer outside replay
	minorsDig [2]uint64
	touched   map[uint64]struct{} //tnpu:canonskip per-layer journal index, reset by BeginLayer
	touchedLi []uint64            //tnpu:canonskip per-layer journal consumed by AppendDelta, reset by BeginLayer

	// sweep is the streak's MAC-line range resolver (see streak.go),
	// engine-owned so the batched hot path allocates nothing; the bus run
	// cursor belongs to the issue window.
	sweep cache.Sweep //tnpu:canonskip per-call scratch resolver, no state across calls
}

func newBaseline(cfg Config) *baseline {
	return &baseline{
		cfg:      cfg,
		geo:      integrity.NewGeometryWithArity(cfg.DRAMBytes, cfg.TreeArity),
		counter:  cache.New("counter", cfg.CounterCacheBytes, dram.BlockBytes, cfg.CacheWays),
		hash:     cache.New("hash", cfg.HashCacheBytes, dram.BlockBytes, cfg.CacheWays),
		mac:      cache.New("mac", cfg.MACCacheBytes, dram.BlockBytes, cfg.CacheWays),
		walkFree: make([]uint64, cfg.WalkMSHRs),
		minors:   make(map[uint64]*[integrity.Arity]uint8),
	}
}

// bumpMinor advances a block's 7-bit minor counter; a wrap re-encrypts
// the whole covered 4KB region (reads + writes of 64 data blocks plus the
// refreshed counter line), charged as a bus burst.
func (b *baseline) bumpMinor(ready, addr uint64) {
	lineIdx, slot := b.geo.CounterIndex(addr / dram.BlockBytes)
	b.bumpSlot(ready, addr, lineIdx, slot, b.minorLineOf(lineIdx))
}

// minorLineOf returns a counter line's minor counters, allocating them on
// the line's first touch, and journals the touch for the layer memo.
func (b *baseline) minorLineOf(lineIdx uint64) *[integrity.Arity]uint8 {
	line := b.minors[lineIdx]
	if line == nil {
		// First touch of this counter line; every later run reuses it, so
		// steady state stays at 0 allocs/op.
		line = new([integrity.Arity]uint8)
		b.minors[lineIdx] = line
	}
	b.minorMark(lineIdx)
	return line
}

// bumpSlot is bumpMinor for the block at addr, whose counters are line's
// slot.
func (b *baseline) bumpSlot(ready, addr, lineIdx uint64, slot int, line *[integrity.Arity]uint8) {
	b.minorDigAdd(lineIdx, slot, 1)
	if line[slot]++; line[slot] < 1<<7 {
		return
	}
	b.minorDigReset(lineIdx, line)
	*line = [integrity.Arity]uint8{}
	b.Overflows++
	burst := uint64(integrity.Arity) * 2 * dram.BlockBytes
	b.traffic.AddRead(stats.Data, burst/2)
	b.traffic.AddWrite(stats.Data, burst/2)
	b.traffic.AddWrite(stats.Counter, dram.BlockBytes)
	b.cfg.Bus.TransferAt(ready, addr, burst+dram.BlockBytes)
}

func (b *baseline) Scheme() Scheme { return Baseline }

// macLineAddr returns the 64B-aligned MAC-region line covering blockAddr,
// with slotBytes of MAC per 64B data block.
func macLineAddr(addr, slotBytes uint64) uint64 {
	return (integrity.MACBase + (addr/dram.BlockBytes)*slotBytes) &^ (dram.BlockBytes - 1)
}

// macAccess simulates the MAC cache for one data block. Reads need the MAC
// line resident (fetch on miss). Write-miss handling differs by engine:
// the tree-less DMA writes whole tensor tiles under one version, so it
// write-combines complete MAC lines and allocates without fetching
// (writeValidate). The baseline MEE is block-oriented — it has no tile
// semantics — so a write miss must read-modify-write the MAC line. This
// is part of the traffic gap between the schemes (Fig. 15). Returns when
// the MAC is available for a read.
func macAccess(c *cache.Cache, cfg *Config, traffic *stats.Traffic, ready, addr uint64, write, writeValidate bool) uint64 {
	line := macLineAddr(addr, cfg.MACSlotBytes)
	res := c.Access(line, write)
	if res.Writeback {
		traffic.AddWrite(stats.MAC, dram.BlockBytes)
		cfg.Bus.TransferAt(ready, res.WritebackAddr, dram.BlockBytes)
	}
	if res.Hit || (write && writeValidate) {
		return ready
	}
	traffic.AddRead(stats.MAC, dram.BlockBytes)
	if write {
		// RMW fill happens behind the store buffer.
		cfg.Bus.TransferAt(ready, line, dram.BlockBytes)
		return ready
	}
	return cfg.Bus.ReadAt(ready, line, dram.BlockBytes)
}

// counterLineAddr returns the level-0 node address covering a data block.
func (b *baseline) counterLineAddr(addr uint64) uint64 {
	lineIdx, _ := b.geo.CounterIndex(addr / dram.BlockBytes)
	return b.geo.NodeAddr(0, lineIdx)
}

// evictCounter handles a dirty counter-line writeback: the line goes to
// DRAM and its parent tree node must absorb the version bump (lazy,
// Bonsai-style: the parent is dirtied in the hash cache; deeper
// propagation happens when that line is in turn evicted).
func (b *baseline) evictCounter(now, victimAddr uint64) {
	b.traffic.AddWrite(stats.Counter, dram.BlockBytes)
	b.cfg.Bus.TransferAt(now, victimAddr, dram.BlockBytes)
	b.touchParent(now, victimAddr, 0)
}

// touchParent dirties the parent node of the metadata line at (level,
// addr) in the hash cache, cascading evicted dirty hash lines upward.
func (b *baseline) touchParent(now, childAddr uint64, childLevel int) {
	if childLevel+1 >= b.geo.Levels() {
		return // parent is the on-chip root
	}
	childIdx := (childAddr - integrity.CounterBase - uint64(childLevel)*integrity.LevelStride) / integrity.NodeBytes
	pIdx, _ := b.geo.Parent(childIdx)
	pAddr := b.geo.NodeAddr(childLevel+1, pIdx)
	res := b.hash.Access(pAddr, true)
	if res.Writeback {
		b.traffic.AddWrite(stats.Hash, dram.BlockBytes)
		b.cfg.Bus.TransferAt(now, res.WritebackAddr, dram.BlockBytes)
		b.touchParent(now, res.WritebackAddr, b.levelOf(res.WritebackAddr))
	}
}

// levelOf recovers a metadata node's tree level from its synthetic address.
func (b *baseline) levelOf(nodeAddr uint64) int {
	return int((nodeAddr - integrity.CounterBase) / integrity.LevelStride)
}

// counterAccess simulates the counter fetch for one data block. On a miss
// the counter line is fetched and verified by walking up the tree: each
// level's node is looked up in the hash cache; a miss fetches it from DRAM
// (serialized — the child cannot be verified before the parent arrives)
// and the walk continues until a hit or the root. Returns when a verified
// counter value is available.
func (b *baseline) counterAccess(ready, addr uint64, write bool) uint64 {
	lineIdx, _ := b.geo.CounterIndex(addr / dram.BlockBytes)
	res := b.counter.Access(b.geo.NodeAddr(0, lineIdx), write)
	if res.Writeback {
		b.evictCounter(ready, res.WritebackAddr)
	}
	if res.Hit {
		return ready
	}
	// Claim a walk MSHR: the walk starts once a slot frees up, so a burst
	// of misses beyond the MSHR count serializes.
	slot := 0
	for i, f := range b.walkFree {
		if f < b.walkFree[slot] {
			slot = i
		}
	}
	if b.walkFree[slot] > ready {
		ready = b.walkFree[slot]
	}
	done := b.walk(ready, lineIdx)
	b.walkFree[slot] = done
	if b.cfg.CounterPrefetch {
		b.prefetchCounter(done, lineIdx+1)
	}
	return done
}

// prefetchCounter pulls the next counter line into the cache off the
// critical path (its verification rides the same ancestors the demand
// walk just warmed). The fill goes through Cache.Prefetch, which counts
// it under Prefetches rather than Lookups/Misses, so the Figure 5 demand
// miss rate is identical with and without the ablation.
func (b *baseline) prefetchCounter(now, lineIdx uint64) {
	if lineIdx >= b.geo.NodesAt(0) {
		return
	}
	res := b.counter.Prefetch(b.geo.NodeAddr(0, lineIdx))
	if res.Hit {
		return // already resident: nothing to fetch
	}
	if res.Writeback {
		b.evictCounter(now, res.WritebackAddr)
	}
	b.traffic.AddRead(stats.Counter, dram.BlockBytes)
	b.cfg.Bus.TransferAt(now, b.geo.NodeAddr(0, lineIdx), dram.BlockBytes)
}

// walk fetches the counter line and verifies it against each ancestor
// until a cached (verified) node or the on-chip root, serialized: a child
// cannot be checked before its parent arrives.
func (b *baseline) walk(ready uint64, lineIdx uint64) uint64 {
	b.traffic.AddRead(stats.Counter, dram.BlockBytes)
	t := b.cfg.Bus.ReadAt(ready, b.geo.NodeAddr(0, lineIdx), dram.BlockBytes)
	idx := lineIdx
	for level := 1; level < b.geo.Levels(); level++ {
		pIdx, _ := b.geo.Parent(idx)
		pAddr := b.geo.NodeAddr(level, pIdx)
		res := b.hash.Access(pAddr, false)
		if res.Writeback {
			b.traffic.AddWrite(stats.Hash, dram.BlockBytes)
			b.cfg.Bus.TransferAt(t, res.WritebackAddr, dram.BlockBytes)
			b.touchParent(t, res.WritebackAddr, b.levelOf(res.WritebackAddr))
		}
		if res.Hit {
			return t // ancestor verified; chain trusted from here
		}
		b.traffic.AddRead(stats.Hash, dram.BlockBytes)
		t = b.cfg.Bus.ReadAt(t, pAddr, dram.BlockBytes)
		idx = pIdx
	}
	return t // verified against the on-chip root
}

func (b *baseline) ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	// Data fetch, counter fetch, and MAC fetch proceed in parallel; the
	// decrypted data is usable once all three have resolved, plus the
	// OTP XOR and MAC-check pipeline latency. Crucially, the memory
	// encryption engine handles counter misses IN ORDER: the recursive
	// tree verification blocks the engine pipeline, so subsequent blocks
	// cannot issue until the walk completes — the counter-cache-miss
	// stall the paper identifies as the key bottleneck (Sec. III-B).
	b.traffic.AddRead(stats.Data, dram.BlockBytes)
	busFree = b.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	dataFetched := busFree + b.cfg.Bus.Latency()

	counterAt := b.counterAccess(ready, addr, false)
	otpAt := counterAt + b.cfg.OTPCycles
	macAt := macAccess(b.mac, &b.cfg, &b.traffic, ready, addr, false, false)

	dataAt = max64(dataFetched, otpAt)
	dataAt = max64(dataAt+b.cfg.XORCycles, macAt) + b.cfg.MACCycles
	return busFree, dataAt
}

func (b *baseline) WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	// The counter increments (read-modify-write in the counter cache; a
	// miss implies a verified fetch first, blocking the engine as on the
	// read path), the block is re-encrypted with the new counter (behind
	// the write buffer), and the MAC slot is regenerated.
	counterAt := b.counterAccess(ready, addr, true)
	b.bumpMinor(ready, addr)
	macAccess(b.mac, &b.cfg, &b.traffic, ready, addr, true, false)
	b.traffic.AddWrite(stats.Data, dram.BlockBytes)
	busFree = b.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, max64(busFree, counterAt)
}

func (b *baseline) VersionFetch(ready, slotAddr uint64, write bool) uint64 { return ready }

func (b *baseline) Flush(now uint64) {
	for _, victim := range b.counter.Flush() {
		b.evictCounter(now, victim)
	}
	for _, victim := range b.hash.Flush() {
		b.traffic.AddWrite(stats.Hash, dram.BlockBytes)
		b.cfg.Bus.TransferAt(now, victim, dram.BlockBytes)
	}
	for _, victim := range b.mac.Flush() {
		b.traffic.AddWrite(stats.MAC, dram.BlockBytes)
		b.cfg.Bus.TransferAt(now, victim, dram.BlockBytes)
	}
}

func (b *baseline) Traffic() *stats.Traffic         { return &b.traffic }
func (b *baseline) CounterStats() *stats.CacheStats { return b.counter.Stats() }
func (b *baseline) HashStats() *stats.CacheStats    { return b.hash.Stats() }
func (b *baseline) MACStats() *stats.CacheStats     { return b.mac.Stats() }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
