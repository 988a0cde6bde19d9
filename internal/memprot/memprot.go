// Package memprot implements the timing and traffic models of the three
// memory-protection schemes the paper evaluates (Sec. V-A):
//
//   - Unsecure: raw transfers, bandwidth + DRAM latency only.
//   - Baseline: counter-mode encryption with an SC-64 split-counter
//     integrity tree over the whole DRAM, counter cache + hash cache +
//     MAC cache (the conventional CPU-style protection of Fig. 1).
//   - TreeLess (TNPU): AES-XTS encryption + per-block versioned MACs,
//     MAC cache only; version numbers are fetched from the small fully
//     protected region (Sec. IV-C).
//
// Engines operate at 64-byte block granularity on a shared dram.Bus, so
// security-metadata traffic competes with tensor data for bandwidth — the
// effect that separates the schemes. All engines are deterministic and not
// safe for concurrent use (the simulator serializes block events).
package memprot

import (
	"fmt"

	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/stats"
)

// Scheme selects a protection engine.
type Scheme int

const (
	// Unsecure applies no protection (the normalization baseline).
	Unsecure Scheme = iota
	// Baseline is the conventional tree-based protection.
	Baseline
	// TreeLess is the TNPU scheme.
	TreeLess
	// EncryptOnly models scalable SGX / Intel TME (Sec. II-B): AES-XTS
	// full-memory encryption with NO integrity protection — the
	// confidentiality-only lower bound TNPU is contrasted against. Not
	// part of the paper's three plotted schemes.
	EncryptOnly
)

// String names the scheme as in the paper's figures.
func (s Scheme) String() string {
	switch s {
	case Unsecure:
		return "unsecure"
	case Baseline:
		return "baseline"
	case TreeLess:
		return "tnpu"
	case EncryptOnly:
		return "encrypt-only"
	}
	return fmt.Sprintf("scheme(%d)", int(s))
}

// Engine is the per-block protection timing model. ReadBlock/WriteBlock
// return two times: busFree is when the block's data beat has cleared the
// bus (the DMA may issue its next block), dataAt is when the decrypted,
// verified data is available to the scratchpad (reads) or accepted by the
// write path (writes).
type Engine interface {
	Scheme() Scheme
	ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64)
	WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64)
	// ReadRun and WriteRun are the batched fast path: serve the stream s,
	// the rest of one DMA instruction across its segment ends, gated by
	// the caller's DMA issue window and stopped by the arbitration
	// horizon, with bus state, cache state, statistics, and returned times
	// identical to pushing the same blocks through ReadBlock/WriteBlock one
	// at a time (the run reads s and leaves it as it was):
	//
	//	for i := 0; i < s.Left; i++ {
	//	    busFree, dataAt := e.ReadBlock(ready, addr(i), version) // addr(i): the stream's i-th block, relocated
	//	    maxDataAt = max(maxDataAt, dataAt)
	//	    ready = w.Issue(ready, busFree)
	//	    if ready >= horizon { break } // served = i+1
	//	}
	//
	// The stop is exact: the call serves blocks until one's next issue
	// time reaches horizon (the earliest cycle a co-tenant can be ready),
	// the last block of a segment included, and reports how many it
	// served. An uncontended run passes dram.NoHorizon and always serves
	// the whole stream. The method, not s.Write, gives the direction. The
	// batching exploits the same regularity TNPU's hardware does: a
	// streaming DMA touches each metadata line once and then hits it for
	// every remaining covered block, so only line-boundary blocks need the
	// full model.
	ReadRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int)
	WriteRun(ready uint64, s *Stream, version uint64, w *dram.IssueWindow, horizon uint64) (nextReady, maxDataAt uint64, served int)
	// VersionFetch models the software's version-table access in the
	// fully protected region before an mvin/mvout (one per instruction,
	// not per block): the 8-byte slot at slotAddr is read (mvin) or
	// updated (mvout). It returns when the version number is available.
	// Schemes without software versioning return ready unchanged.
	VersionFetch(ready, slotAddr uint64, write bool) uint64
	// Flush drains dirty metadata (end-of-run accounting).
	Flush(now uint64)
	Traffic() *stats.Traffic
	// CounterStats/HashStats/MACStats return cache statistics; engines
	// without a given cache return a zero-valued struct.
	CounterStats() *stats.CacheStats
	HashStats() *stats.CacheStats
	MACStats() *stats.CacheStats
}

// Stream is the rest of one DMA instruction: its segments, the segment
// and block it issues next, how many blocks are left (the next one
// included), and its direction. Addresses are the instruction's own; Off
// relocates them to the issuing context. An engine run serves one stream,
// a contended round walks one per tenant, and npu.Machine keeps its place
// in the active instruction as one.
type Stream struct {
	Segs  []isa.Segment
	Seg   int
	Addr  uint64 // next block's address
	End   uint64 // current segment's end
	Off   uint64
	Left  int // blocks from Addr to the end of the last segment
	Write bool
}

// Reset makes s the whole of a DMA instruction over segs (at least one),
// relocated by off. It sets the fields in place: a machine resets its stream once per
// instruction, and copying a whole Stream value into it would cost more.
func (s *Stream) Reset(segs []isa.Segment, off uint64, write bool) {
	s.Segs, s.Seg, s.Off, s.Write, s.Left = segs, 0, off, write, 0
	for _, g := range segs {
		s.Left += blocksTo(g.Addr&^(dram.BlockBytes-1), g.Addr+g.Bytes)
	}
	s.load()
}

// load positions the stream at the first block of segment Seg.
func (s *Stream) load() {
	g := s.Segs[s.Seg]
	s.Addr = g.Addr &^ (dram.BlockBytes - 1)
	s.End = g.Addr + g.Bytes
}

// Advance moves the stream k blocks forward, across segment ends; k must
// not exceed Left.
func (s *Stream) Advance(k int) {
	s.Left -= k
	for s.Left > 0 {
		n := blocksTo(s.Addr, s.End)
		if k < n {
			s.Addr += uint64(k) * dram.BlockBytes
			return
		}
		k -= n
		s.Seg++
		s.load()
	}
}

// cursor returns a walk over the stream's blocks, indexed from its next
// one.
func (s *Stream) cursor() streamCur {
	return streamCur{segs: s.Segs, seg: s.Seg, a0: s.Addr + s.Off, end: blocksTo(s.Addr, s.End), off: s.Off}
}

// blocksTo returns how many blocks cover [addr, end) from the block-aligned
// addr.
func blocksTo(addr, end uint64) int {
	return int((end - addr + dram.BlockBytes - 1) / dram.BlockBytes)
}

// streamCur walks a stream's blocks forward across segment ends.
type streamCur struct {
	segs []isa.Segment
	seg  int
	i0   int    // stream block index of the current segment's first block
	a0   uint64 // its relocated address
	end  int    // stream block index past the current segment
	off  uint64
}

// at returns block i's relocated address and how many blocks of its
// segment remain from it; i must not be below the last block asked for.
func (c *streamCur) at(i int) (addr uint64, rest int) {
	for i >= c.end {
		c.i0 = c.end
		c.seg++
		s := c.segs[c.seg]
		a := s.Addr &^ (dram.BlockBytes - 1)
		c.a0 = a + c.off
		c.end += blocksTo(a, s.Addr+s.Bytes)
	}
	return c.a0 + uint64(i-c.i0)*dram.BlockBytes, c.end - i
}

// Config carries the protection parameters of Sec. V-A.
type Config struct {
	// Bus is the shared memory interface (may be shared among NPUs).
	Bus *dram.Bus
	// DRAMBytes is the size of the protected physical memory the baseline
	// tree covers ("the entire DRAM space", Sec. III-B).
	DRAMBytes uint64
	// FullyProtectedBytes is the SGX-PRM-like region holding security
	// metadata and version tables (128MB, Sec. IV-A).
	FullyProtectedBytes uint64

	// Cache capacities (bytes): 4KB counter, 4KB hash, 8KB MAC (Sec. V-A).
	CounterCacheBytes int
	HashCacheBytes    int
	MACCacheBytes     int
	// CacheWays is the associativity of all metadata caches.
	CacheWays int

	// Crypto latencies in cycles (Sec. V-A): OTP = 10 + 1 XOR for
	// counter mode; 13 for AES-XTS.
	OTPCycles uint64
	XORCycles uint64
	XTSCycles uint64
	// MACCycles is the MAC check/generate pipeline latency.
	MACCycles uint64

	// TreeArity is the counter-tree fan-out (64 = SC-64 default; 8 =
	// SGX-MEE-like). Ablation knob for the baseline engine.
	TreeArity uint64
	// WalkMSHRs is how many counter-tree walks the security engine can
	// have in flight. Dense streams (one miss per 4KB) overlap their
	// walks within this window; bursty fine-grained misses saturate it
	// and serialize — the behaviour behind sent/tf in Fig. 4.
	WalkMSHRs int
	// CounterPrefetch makes the baseline engine fetch the next counter
	// line on every miss (next-line prefetch): an ablation probing
	// whether simple prefetching could rescue the tree-based design for
	// streaming tensors.
	CounterPrefetch bool
	// MACSlotBytes is the per-block MAC size (8B default; trading
	// collision resistance against the 12.5% MAC traffic). Ablation knob.
	MACSlotBytes uint64
}

// DefaultConfig returns the paper's parameters over the given shared bus.
func DefaultConfig(bus *dram.Bus) Config {
	return Config{
		Bus:                 bus,
		DRAMBytes:           4 << 30,
		FullyProtectedBytes: 128 << 20,
		CounterCacheBytes:   4 << 10,
		HashCacheBytes:      4 << 10,
		MACCacheBytes:       8 << 10,
		CacheWays:           8,
		OTPCycles:           10,
		XORCycles:           1,
		XTSCycles:           13,
		MACCycles:           20,
		TreeArity:           64,
		WalkMSHRs:           2,
		MACSlotBytes:        8,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Bus == nil {
		return fmt.Errorf("memprot: nil bus")
	}
	if c.DRAMBytes == 0 || c.FullyProtectedBytes == 0 {
		return fmt.Errorf("memprot: zero memory sizes")
	}
	if c.CounterCacheBytes <= 0 || c.HashCacheBytes <= 0 || c.MACCacheBytes <= 0 || c.CacheWays <= 0 {
		return fmt.Errorf("memprot: non-positive cache parameters")
	}
	if c.TreeArity < 2 {
		return fmt.Errorf("memprot: tree arity %d too small", c.TreeArity)
	}
	if c.WalkMSHRs <= 0 {
		return fmt.Errorf("memprot: need at least one walk MSHR")
	}
	if c.MACSlotBytes == 0 || c.MACSlotBytes > dram.BlockBytes {
		return fmt.Errorf("memprot: MAC slot of %d bytes invalid", c.MACSlotBytes)
	}
	return nil
}

// New constructs the engine for a scheme.
func New(s Scheme, cfg Config) (Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	switch s {
	case Unsecure:
		return newUnsecure(cfg), nil
	case Baseline:
		return newBaseline(cfg), nil
	case TreeLess:
		return newTreeless(cfg), nil
	case EncryptOnly:
		return newEncryptOnly(cfg), nil
	}
	return nil, fmt.Errorf("memprot: unknown scheme %d", int(s))
}

// Schemes lists the paper's three plotted schemes in figure order.
func Schemes() []Scheme { return []Scheme{Unsecure, Baseline, TreeLess} }

// AllSchemes adds the encryption-only (scalable-SGX-like) bound.
func AllSchemes() []Scheme { return []Scheme{Unsecure, Baseline, TreeLess, EncryptOnly} }

var zeroCacheStats stats.CacheStats

// unsecure is the no-protection engine.
type unsecure struct {
	cfg     Config
	traffic stats.Traffic
}

func newUnsecure(cfg Config) *unsecure { return &unsecure{cfg: cfg} }

func (u *unsecure) Scheme() Scheme { return Unsecure }

func (u *unsecure) ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	u.traffic.AddRead(stats.Data, dram.BlockBytes)
	busFree = u.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree + u.cfg.Bus.Latency()
}

func (u *unsecure) WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	u.traffic.AddWrite(stats.Data, dram.BlockBytes)
	busFree = u.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree
}

func (u *unsecure) VersionFetch(ready, slotAddr uint64, write bool) uint64 { return ready }
func (u *unsecure) Flush(now uint64)                                       {}
func (u *unsecure) Traffic() *stats.Traffic                                { return &u.traffic }
func (u *unsecure) CounterStats() *stats.CacheStats                        { return &zeroCacheStats }
func (u *unsecure) HashStats() *stats.CacheStats                           { return &zeroCacheStats }
func (u *unsecure) MACStats() *stats.CacheStats                            { return &zeroCacheStats }

// encryptOnly is the scalable-SGX-like engine: counter-less AES-XTS over
// the whole memory, no MACs, no freshness. Confidentiality against
// physical attacks, zero integrity — its cost is the XTS pipeline latency
// alone, which bounds how cheap any integrity-adding scheme could get.
type encryptOnly struct {
	cfg     Config
	traffic stats.Traffic
}

func newEncryptOnly(cfg Config) *encryptOnly { return &encryptOnly{cfg: cfg} }

func (e *encryptOnly) Scheme() Scheme { return EncryptOnly }

func (e *encryptOnly) ReadBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	e.traffic.AddRead(stats.Data, dram.BlockBytes)
	busFree = e.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree + e.cfg.Bus.Latency() + e.cfg.XTSCycles
}

func (e *encryptOnly) WriteBlock(ready, addr, version uint64) (busFree, dataAt uint64) {
	e.traffic.AddWrite(stats.Data, dram.BlockBytes)
	busFree = e.cfg.Bus.TransferAt(ready, addr, dram.BlockBytes)
	return busFree, busFree
}

func (e *encryptOnly) VersionFetch(ready, slotAddr uint64, write bool) uint64 { return ready }
func (e *encryptOnly) Flush(now uint64)                                       {}
func (e *encryptOnly) Traffic() *stats.Traffic                                { return &e.traffic }
func (e *encryptOnly) CounterStats() *stats.CacheStats                        { return &zeroCacheStats }
func (e *encryptOnly) HashStats() *stats.CacheStats                           { return &zeroCacheStats }
func (e *encryptOnly) MACStats() *stats.CacheStats                            { return &zeroCacheStats }
