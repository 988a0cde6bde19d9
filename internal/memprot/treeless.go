package memprot

import (
	"fmt"

	"tnpu/internal/cache"
	"tnpu/internal/dram"
	"tnpu/internal/integrity"
	"tnpu/internal/stats"
	"tnpu/internal/tensor"
)

// VTableBase is the synthetic address of the version-number table inside
// the fully protected region. Version-table slots are 8 bytes (Sec. IV-D);
// the NPU driver computes a slot address per (tensor, tile).
const VTableBase uint64 = 1 << 45

// VTableSlot returns the fully-protected-region address of the version
// slot for (tensorID, tile). Slots of one tensor pack 8 bytes apart, so a
// tensor's expanded tile versions share cache lines the way the packed
// software table of Sec. IV-D does.
func VTableSlot(tensorID uint32, tile int) uint64 {
	if tile < 0 || tile >= tensor.MaxTiles {
		panic(fmt.Sprintf("memprot: tile %d outside version-table layout (max %d)", tile, tensor.MaxTiles))
	}
	return VTableBase + (uint64(tensorID)*tensor.MaxTiles+uint64(tile))*8
}

// treeless is the TNPU protection engine (Sec. IV-C): AES-XTS encryption
// (no counters, no counter/hash caches) plus an 8-byte versioned MAC per
// block. Replay freshness comes from version numbers the software fetches
// from the fully protected region; that small region keeps a conventional
// tree, modelled here by a miniature tree walker with its own tiny caches
// (the MEE protecting the PRM is separate hardware from the NPU path).
type treeless struct {
	cfg     Config
	mac     *cache.Cache
	traffic stats.Traffic

	// Streak scratch state (see streak.go): sweep resolves a cold MAC-line
	// range in closed form. Engine-owned so the batched hot path allocates
	// nothing; the bus run cursor belongs to the issue window.
	sweep cache.Sweep

	// Version-table path: the table is CPU-enclave data, so accesses hit
	// the CPU cache hierarchy; vcache models that residency (the tables
	// are KB-scale — Sec. IV-D — so even several contexts' tables stay
	// resident in a CPU L2). Misses become fully-protected-region DRAM
	// accesses verified by fpGeo's tree through the small
	// fpCounter/fpHash caches.
	vcache    *cache.Cache
	fpGeo     integrity.Geometry
	fpCounter *cache.Cache
	fpHash    *cache.Cache
}

func newTreeless(cfg Config) *treeless {
	return &treeless{
		cfg:       cfg,
		mac:       cache.New("mac", cfg.MACCacheBytes, dram.BlockBytes, cfg.CacheWays),
		vcache:    cache.New("vtable", 64<<10, dram.BlockBytes, cfg.CacheWays),
		fpGeo:     integrity.NewGeometry(cfg.FullyProtectedBytes),
		fpCounter: cache.New("fp-counter", 1<<10, dram.BlockBytes, cfg.CacheWays),
		fpHash:    cache.New("fp-hash", 1<<10, dram.BlockBytes, cfg.CacheWays),
	}
}

func (t *treeless) Scheme() Scheme { return TreeLess }

func (t *treeless) ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	// Data and MAC fetches overlap; XTS decryption starts once the
	// ciphertext arrives (no precomputable OTP — the 13-cycle cost of
	// counter-less encryption), and the version-keyed MAC check pipelines
	// after both.
	t.traffic.AddRead(stats.Data, dram.BlockBytes)
	busFree = t.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	dataFetched := busFree + t.cfg.Bus.Latency()

	macAt := macAccess(t.mac, &t.cfg, &t.traffic, ready, addr, false, true)
	dataAt = max64(dataFetched+t.cfg.XTSCycles, macAt) + t.cfg.MACCycles
	return busFree, dataAt
}

func (t *treeless) WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	// XTS encryption and MAC generation happen behind the write buffer;
	// the MAC slot is updated in the MAC cache (write-validate).
	macAccess(t.mac, &t.cfg, &t.traffic, ready, addr, true, true)
	t.traffic.AddWrite(stats.Data, dram.BlockBytes)
	busFree = t.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree
}

// VersionFetch models the software reading (mvin) or updating (mvout) the
// 8-byte version slot at slotAddr in the fully protected region. The table
// is a few KB (Sec. IV-D) so it stays resident in vcache; misses generate
// real protected-region traffic including the region's own tree metadata.
// The accesses consume bus bandwidth but do not gate the instruction: the
// CPU reads the table ahead of issue and posts updates asynchronously, so
// only their "access requests to the fully protected memory" (Sec. V-A)
// compete with the NPU's transfers.
func (t *treeless) versionFetch(ready, slotAddr uint64, write bool) uint64 {
	line := slotAddr &^ (dram.BlockBytes - 1)
	res := t.vcache.Access(line, write)
	if res.Writeback {
		t.traffic.AddWrite(stats.Version, dram.BlockBytes)
		t.cfg.Bus.TransferAt(ready, res.WritebackAddr, dram.BlockBytes)
		t.fpMetadata(ready, res.WritebackAddr, true)
	}
	if res.Hit {
		return ready
	}
	t.traffic.AddRead(stats.Version, dram.BlockBytes)
	at := t.cfg.Bus.ReadAt(ready, line, dram.BlockBytes)
	t.fpMetadata(at, line, false)
	return ready
}

// fpMetadata walks the fully-protected region's own counter tree for one
// version-table block access.
func (t *treeless) fpMetadata(ready, addr uint64, write bool) uint64 {
	lineIdx, _ := t.fpGeo.CounterIndex((addr - VTableBase) / dram.BlockBytes)
	ctrAddr := t.fpGeo.NodeAddr(0, lineIdx)
	res := t.fpCounter.Access(ctrAddr, write)
	if res.Writeback {
		t.traffic.AddWrite(stats.Counter, dram.BlockBytes)
		t.cfg.Bus.TransferAt(ready, res.WritebackAddr, dram.BlockBytes)
	}
	if res.Hit {
		return ready
	}
	t.traffic.AddRead(stats.Counter, dram.BlockBytes)
	at := t.cfg.Bus.ReadAt(ready, ctrAddr, dram.BlockBytes)
	idx := lineIdx
	for level := 1; level < t.fpGeo.Levels(); level++ {
		pIdx, _ := t.fpGeo.Parent(idx)
		pAddr := t.fpGeo.NodeAddr(level, pIdx)
		res := t.fpHash.Access(pAddr, false)
		if res.Writeback {
			t.traffic.AddWrite(stats.Hash, dram.BlockBytes)
			t.cfg.Bus.TransferAt(at, res.WritebackAddr, dram.BlockBytes)
		}
		if res.Hit {
			return at
		}
		t.traffic.AddRead(stats.Hash, dram.BlockBytes)
		at = t.cfg.Bus.ReadAt(at, pAddr, dram.BlockBytes)
		idx = pIdx
	}
	return at
}

func (t *treeless) VersionFetch(ready, slotAddr uint64, write bool) uint64 {
	return t.versionFetch(ready, slotAddr, write)
}

func (t *treeless) Flush(now uint64) {
	for _, victim := range t.mac.Flush() {
		t.traffic.AddWrite(stats.MAC, dram.BlockBytes)
		t.cfg.Bus.TransferAt(now, victim, dram.BlockBytes)
	}
	for _, victim := range t.vcache.Flush() {
		t.traffic.AddWrite(stats.Version, dram.BlockBytes)
		t.cfg.Bus.TransferAt(now, victim, dram.BlockBytes)
		t.fpMetadata(now, victim, true)
	}
	for _, victim := range t.fpCounter.Flush() {
		t.traffic.AddWrite(stats.Counter, dram.BlockBytes)
		t.cfg.Bus.TransferAt(now, victim, dram.BlockBytes)
	}
	for _, victim := range t.fpHash.Flush() {
		t.traffic.AddWrite(stats.Hash, dram.BlockBytes)
		t.cfg.Bus.TransferAt(now, victim, dram.BlockBytes)
	}
}

func (t *treeless) Traffic() *stats.Traffic         { return &t.traffic }
func (t *treeless) CounterStats() *stats.CacheStats { return &zeroCacheStats }
func (t *treeless) HashStats() *stats.CacheStats    { return &zeroCacheStats }
func (t *treeless) MACStats() *stats.CacheStats     { return t.mac.Stats() }
