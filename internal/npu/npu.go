// Package npu is the cycle-accounting NPU simulator: it executes a
// compiled instruction trace on two in-order functional units — a DMA
// engine that moves 64B blocks through a memory-protection engine, and the
// systolic PE array — connected by the compiler's dependency edges. The
// block-granular design lets several NPUs interleave fairly on one shared
// bus and one shared security engine (the Sec. V-C scalability setup).
package npu

import (
	"fmt"
	"sync/atomic"

	"tnpu/internal/cache"
	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/memprot"
	"tnpu/internal/spm"
	"tnpu/internal/stats"
	"tnpu/internal/systolic"
)

// Config is one NPU's hardware description (Table II).
type Config struct {
	Name  string `digest:"-"` // display label, never read by the timing model
	Array systolic.Array
	SPM   spm.SPM
	Mem   dram.Config
}

// SmallNPU returns the Samsung Exynos 990-class configuration.
func SmallNPU() Config {
	return Config{
		Name:  "small",
		Array: systolic.Array{Rows: 32, Cols: 32},
		SPM:   spm.SPM{CapacityBytes: 480 << 10},
		Mem: dram.Config{
			FreqHz:               2_750_000_000,
			BandwidthBytesPerSec: 11_000_000_000,
			LatencyCycles:        100,
		},
	}
}

// LargeNPU returns the ARM Ethos-N77-class configuration.
func LargeNPU() Config {
	return Config{
		Name:  "large",
		Array: systolic.Array{Rows: 45, Cols: 45},
		SPM:   spm.SPM{CapacityBytes: 1 << 20},
		Mem: dram.Config{
			FreqHz:               1_000_000_000,
			BandwidthBytesPerSec: 22_000_000_000,
			LatencyCycles:        100,
		},
	}
}

// CompilerConfig derives the compiler view of this NPU.
func (c Config) CompilerConfig() compiler.Config {
	return compiler.Config{Array: c.Array, SPM: c.SPM}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Array.Validate(); err != nil {
		return err
	}
	if err := c.SPM.Validate(); err != nil {
		return err
	}
	return c.Mem.Validate()
}

// Machine executes one program against a protection engine. It exposes a
// block-granular stepping interface so a multi-NPU scheduler can interleave
// machines on shared memory; Run drives a single machine to completion.
type Machine struct {
	prog *compiler.Program
	eng  memprot.Engine

	done    []uint64
	pos     int
	dmaFree uint64
	peFree  uint64

	// Active DMA instruction cursor: st is the rest of instruction active.
	active    int
	st        memprot.Stream
	issueAt   uint64
	maxDataAt uint64

	// window is the DMA engine's outstanding-request window: block i may
	// issue once block i-dmaOutstanding has cleared its channel, so
	// transfers pipeline across memory channels without modelling an
	// unbounded request queue. Shared by the per-block and batched paths
	// so both see identical issue gating.
	window *dram.IssueWindow

	// batched selects the engine's run path (the default) over the
	// per-block reference.
	batched bool

	// iotlb, when non-nil, models the per-instruction IOMMU translation.
	iotlb      *cache.Cache
	walkCycles uint64
	TLBMisses  uint64

	computeBusy uint64
	lastDone    uint64
	blocksMoved uint64

	// Per-NPU attribution counters (multi-NPU QoS stats): blocks served by
	// direction, how many engine run calls served them (one per turn), and
	// how many of them contended rounds served. Blocks counts are
	// execution-path invariant; runsServed and roundBlocks are
	// observability only (they differ between the per-block reference and
	// the batched path).
	blocksRead    uint64
	blocksWritten uint64
	runsServed    uint64
	roundBlocks   uint64

	dataOffset uint64
	slotOffset uint64
}

// dmaOutstanding is the DMA engine's maximum outstanding block requests.
const dmaOutstanding = 16

// NewMachine prepares a machine; the engine may be shared across machines.
func NewMachine(prog *compiler.Program, eng memprot.Engine) *Machine {
	return NewMachineAt(prog, eng, 0, 0)
}

// NewMachineAt prepares a machine whose NPU context lives at a distinct
// physical base: dataOffset relocates every tensor address and slotOffset
// relocates the context's version-table slots. Multi-NPU systems give each
// NPU its own region so shared metadata caches see true (conflicting)
// working sets rather than accidentally shared lines.
func NewMachineAt(prog *compiler.Program, eng memprot.Engine, dataOffset, slotOffset uint64) *Machine {
	m := &Machine{
		prog:       prog,
		eng:        eng,
		done:       make([]uint64, len(prog.Trace.Instrs)),
		active:     -1,
		dataOffset: dataOffset,
		slotOffset: slotOffset,
		window:     dram.NewIssueWindow(dmaOutstanding),
	}
	m.batched = !forcePerBlock.Load()
	return m
}

// forcePerBlock disables the batched fast path for every subsequently
// constructed machine; tnpu-bench -perblock uses it for A/B timing.
var forcePerBlock atomic.Bool

// ForcePerBlock globally selects the per-block reference path for machines
// constructed after the call.
func ForcePerBlock(on bool) { forcePerBlock.Store(on) }

// SetBatched selects this machine's execution path. Both paths are cycle-
// and stats-identical; per-block exists as the differential reference and
// for block-granular multi-NPU interleave.
func (m *Machine) SetBatched(on bool) { m.batched = on }

// Batched reports whether the machine will serve runs via the fast path.
func (m *Machine) Batched() bool { return m.batched }

func (m *Machine) depsDone(in *isa.Instr) uint64 {
	var t uint64
	for _, d := range in.Deps {
		if m.done[d] > t {
			t = m.done[d]
		}
	}
	return t
}

// retire completes an instruction, tracking the machine's finish time.
func (m *Machine) retire(idx int, at uint64) {
	m.done[idx] = at
	if at > m.lastDone {
		m.lastDone = at
	}
}

// NextReady advances through compute instructions (which need no bus) and
// returns the issue-ready time of the next memory block, or ok=false when
// the trace is exhausted.
func (m *Machine) NextReady() (ready uint64, ok bool) {
	for m.active < 0 {
		if m.pos >= len(m.prog.Trace.Instrs) {
			return 0, false
		}
		in := &m.prog.Trace.Instrs[m.pos]
		switch in.Op {
		case isa.OpCompute, isa.OpPreload:
			start := max64(m.peFree, m.depsDone(in))
			end := start + in.Cycles
			m.peFree = end
			m.computeBusy += in.Cycles
			m.retire(m.pos, end)
			m.pos++
		case isa.OpMvIn, isa.OpMvOut:
			m.startDMA(m.pos, in)
			m.pos++
		default:
			panic(fmt.Sprintf("npu: unknown op %v", in.Op))
		}
	}
	return m.issueAt, true
}

// EnableTranslation attaches an IOMMU model to the machine (Fig. 11):
// each mvin/mvout translates the 4KB pages its segments touch through an
// IOTLB with the given number of entries, and each miss pays walkCycles
// for the page walk plus the EEPCM validation. Machines run without it by
// default, as the paper folds translation into the 100-cycle DRAM figure
// (after NeuMMU).
func (m *Machine) EnableTranslation(entries int, walkCycles uint64) {
	m.iotlb = cache.New("iotlb", entries*4096, 4096, 4)
	m.walkCycles = walkCycles
}

// translate runs the instruction's pages through the IOMMU (Fig. 11):
// each TLB miss performs a page walk and EEPCM validation, serializing
// the instruction's start.
func (m *Machine) translate(start uint64, in *isa.Instr) uint64 {
	if m.iotlb == nil {
		return start
	}
	for _, seg := range in.Segments {
		first := (seg.Addr + m.dataOffset) &^ 4095
		for page := first; page < seg.Addr+m.dataOffset+seg.Bytes; page += 4096 {
			if res := m.iotlb.Access(page, false); !res.Hit {
				m.TLBMisses++
				start += m.walkCycles
			}
		}
	}
	return start
}

// startDMA begins a memory instruction: the IOMMU validates the covered
// pages, the software fetches the version number from the fully protected
// region (Sec. IV-C), then the DMA engine streams the covered 64B blocks.
func (m *Machine) startDMA(idx int, in *isa.Instr) {
	start := max64(m.dmaFree, m.depsDone(in))
	start = m.translate(start, in)
	slot := memprot.VTableSlot(uint32(in.Tensor), in.Tile) + m.slotOffset
	start = m.eng.VersionFetch(start, slot, in.Op == isa.OpMvOut)
	m.active = idx
	m.st.Reset(in.Segments, m.dataOffset, in.Op == isa.OpMvOut)
	m.issueAt = start
	m.maxDataAt = start
}

// ServeBlock pushes one block through the protection engine. Callers must
// have obtained a ready time from NextReady first.
func (m *Machine) ServeBlock() {
	version := m.prog.Trace.Instrs[m.active].Version
	var busFree, dataAt uint64
	if m.st.Write {
		busFree, dataAt = m.eng.WriteBlock(m.issueAt, m.st.Addr+m.dataOffset, version)
		m.blocksWritten++
	} else {
		busFree, dataAt = m.eng.ReadBlock(m.issueAt, m.st.Addr+m.dataOffset, version)
		m.blocksRead++
	}
	m.blocksMoved++
	m.issueAt = m.window.Issue(m.issueAt, busFree)
	if dataAt > m.maxDataAt {
		m.maxDataAt = dataAt
	}
	if m.st.Advance(1); m.st.Left == 0 {
		m.finishDMA()
	}
}

// finishDMA retires the active instruction once its last block is served:
// data validity gates dependents; the DMA engine itself is free once its
// issue window allows the next instruction's first block.
func (m *Machine) finishDMA() {
	m.retire(m.active, m.maxDataAt)
	m.dmaFree = m.issueAt
	m.active = -1
}

// ServeRun serves every remaining block of the active DMA instruction and
// retires it: ServeRunUntil with no co-tenant to yield to.
func (m *Machine) ServeRun() { m.ServeRunUntil(dram.NoHorizon) }

// ServeRunUntil serves the active DMA instruction up to the interaction
// horizon: the earliest cycle at which any other machine sharing the bus
// could become issue-ready. It serves exactly the blocks block-granular
// arbitration would hand this machine in a row — each block in turn, until
// one's next issue time reaches the horizon — so serving order is the
// reference's. The batched path hands the rest of the instruction to one
// engine run, which crosses segment ends and stops at the same block;
// otherwise it steps the per-block reference. Callers must have obtained a
// ready time from NextReady first; at least one block is always served
// (the caller selected this machine, so it wins the tie even when its
// ready time equals the horizon). On return either the instruction retired
// or issueAt >= horizon and another machine may be ready.
func (m *Machine) ServeRunUntil(horizon uint64) {
	if !m.batched {
		for {
			m.ServeBlock()
			if m.active < 0 || m.issueAt >= horizon {
				return
			}
		}
	}
	version := m.prog.Trace.Instrs[m.active].Version
	var next, dataAt uint64
	var k int
	if m.st.Write {
		next, dataAt, k = m.eng.WriteRun(m.issueAt, &m.st, version, m.window, horizon)
		m.blocksWritten += uint64(k)
	} else {
		next, dataAt, k = m.eng.ReadRun(m.issueAt, &m.st, version, m.window, horizon)
		m.blocksRead += uint64(k)
	}
	m.runsServed++
	m.blocksMoved += uint64(k)
	m.issueAt = next
	if dataAt > m.maxDataAt {
		m.maxDataAt = dataAt
	}
	if m.st.Advance(k); m.st.Left == 0 {
		m.finishDMA()
	}
}

// Gated reports whether the machine can join a contended round: it is
// mid-instruction on the batched path and its next block issues at its
// window's oldest slot, so its issue times stay the clears of its own
// blocks depth back while the round lasts.
func (m *Machine) Gated() bool {
	return m.active >= 0 && m.batched && m.issueAt == m.window.Oldest()
}

// Window returns the DMA issue window, which a contended round reads and
// writes back in place of the machine.
func (m *Machine) Window() *dram.IssueWindow { return m.window }

// Stream describes the rest of the active instruction to a contended
// round: segments, the next block, and how many blocks are left. The round
// stops before the instruction's last block, so the machine retires the
// instruction itself.
func (m *Machine) Stream() memprot.Stream { return m.st }

// AdvanceRound moves the machine past k blocks a contended round served,
// across segment ends but never past the instruction's last block: the
// round left issueAt as the next issue time and dataAt as the served
// blocks' latest data time.
func (m *Machine) AdvanceRound(k int, issueAt, dataAt uint64) {
	if m.st.Write {
		m.blocksWritten += uint64(k)
	} else {
		m.blocksRead += uint64(k)
	}
	m.blocksMoved += uint64(k)
	m.roundBlocks += uint64(k)
	m.issueAt = issueAt
	if dataAt > m.maxDataAt {
		m.maxDataAt = dataAt
	}
	m.st.Advance(k)
}

// Run drives the machine to completion (single-NPU operation).
func (m *Machine) Run() {
	for {
		if _, ok := m.NextReady(); !ok {
			return
		}
		m.ServeRun()
	}
}

// Cycles returns the completion time of the last retired instruction.
func (m *Machine) Cycles() uint64 { return m.lastDone }

// ComputeBusy returns total PE-array busy cycles.
func (m *Machine) ComputeBusy() uint64 { return m.computeBusy }

// BlocksMoved returns the number of 64B blocks the DMA transferred.
func (m *Machine) BlocksMoved() uint64 { return m.blocksMoved }

// BlocksRead returns the blocks served on the read (mvin) path.
func (m *Machine) BlocksRead() uint64 { return m.blocksRead }

// BlocksWritten returns the blocks served on the write (mvout) path.
func (m *Machine) BlocksWritten() uint64 { return m.blocksWritten }

// RunsServed returns how many engine run calls served this machine's
// blocks: one per arbitration turn, which for a lone NPU is one per DMA
// instruction. It is zero on the per-block reference path.
func (m *Machine) RunsServed() uint64 { return m.runsServed }

// RoundBlocks returns how many of this machine's blocks contended rounds
// served — zero on the per-block reference path and for a lone NPU.
func (m *Machine) RoundBlocks() uint64 { return m.roundBlocks }

// Utilization returns the PE array's busy fraction over the whole run —
// the number protection overhead eats into (an unsecure-equal compute
// time over a longer wall clock).
func (m *Machine) Utilization() float64 {
	if m.lastDone == 0 {
		return 0
	}
	return float64(m.computeBusy) / float64(m.lastDone)
}

// LayerSpans returns, per model layer, the cycle at which its last
// instruction retired — the per-layer breakdown behind the paper's
// observation that embedding layers dominate sent/tf.
func (m *Machine) LayerSpans() []uint64 {
	spans := make([]uint64, len(m.prog.LayerLast))
	for li, last := range m.prog.LayerLast {
		var end uint64
		for idx := m.prog.LayerFirst[li]; idx <= last; idx++ {
			if m.done[idx] > end {
				end = m.done[idx]
			}
		}
		spans[li] = end
	}
	return spans
}

// Result summarizes one simulation.
type Result struct {
	Scheme  memprot.Scheme
	Cycles  uint64
	Compute uint64
	// Utilization is the PE array busy fraction.
	Utilization float64
	Traffic     stats.Traffic
	Counter     stats.CacheStats
	Hash        stats.CacheStats
	MAC         stats.CacheStats
	// VersionTablePeakBytes is the Sec. IV-D storage metric.
	VersionTablePeakBytes int
}

// Run compiles nothing: it executes an already-compiled program under the
// given scheme on a fresh bus/engine and returns the summary.
func Run(prog *compiler.Program, scheme memprot.Scheme, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
	if err != nil {
		return Result{}, err
	}
	m := NewMachine(prog, eng)
	m.Run()
	eng.Flush(m.Cycles())
	return Result{
		Scheme:                scheme,
		Cycles:                m.Cycles(),
		Compute:               m.ComputeBusy(),
		Utilization:           m.Utilization(),
		Traffic:               *eng.Traffic(),
		Counter:               *eng.CounterStats(),
		Hash:                  *eng.HashStats(),
		MAC:                   *eng.MACStats(),
		VersionTablePeakBytes: prog.Table.PeakStorageBytes(),
	}, nil
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// LayerMemo is what remains of the deleted layer-signature memo: an empty
// value kept so existing callers still compile. Whole-run cell results
// persist through exp.Runner's memo store instead.
//
// Deprecated: the layer memo is gone; nothing fills or reads a LayerMemo.
type LayerMemo struct{}

// NewLayerMemo returns an empty LayerMemo.
//
// Deprecated: the layer memo is gone.
func NewLayerMemo() *LayerMemo { return &LayerMemo{} }

// MemoStats is the counter snapshot LayerMemo.Stats returns.
//
// Deprecated: the layer memo is gone; every field reads zero.
type MemoStats struct {
	Hits, Misses, Records, DiskHits uint64
}

// Stats always returns the zero MemoStats.
//
// Deprecated: the layer memo is gone.
func (*LayerMemo) Stats() MemoStats { return MemoStats{} }
