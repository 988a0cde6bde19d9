// Package multinpu simulates 1–3 NPUs sharing the memory controller and
// the security engine, the Sec. V-C scalability setup: every NPU has its
// own IOMMU and context memory, but bandwidth and the metadata caches
// (counter, hash, MAC) are shared, so baseline counter/hash working sets
// collide — the effect that widens TNPU's advantage as NPU count grows.
package multinpu

import (
	"fmt"
	"sync/atomic"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
	"tnpu/internal/stats"
)

// contextStride separates NPU contexts in physical memory (each context's
// tensors, and its version-table slots, live in a disjoint region).
const contextStride uint64 = 256 << 20

// slotStride separates the contexts' version tables within the 128MB
// fully protected region.
const slotStride uint64 = 2 << 20

// NPUStats attributes served work to one NPU — the per-tenant QoS view of
// a co-tenant run. Cycles, Blocks, and byte counters are identical across
// execution paths (pinned by the differential suite); Runs counts the
// engine run calls that served the NPU's blocks (one per segment an
// arbitration turn touches) and is observability for the batched path only
// (zero under block-granular interleave).
type NPUStats struct {
	Cycles     uint64
	Blocks     uint64
	ReadBytes  uint64
	WriteBytes uint64
	Runs       uint64
	// RoundBlocks counts the blocks contended rounds served (round.go).
	// Like Runs it depends on the execution path.
	RoundBlocks uint64
}

// Result summarizes a multi-NPU run.
type Result struct {
	Scheme memprot.Scheme
	// Cycles is the completion time of the slowest NPU — the paper's
	// normalized execution time for an n-NPU run.
	Cycles uint64
	// PerNPU is each NPU's own completion time.
	PerNPU []uint64
	// NPUs is the per-NPU served-work attribution (PerNPU cycles again,
	// plus block/byte/run counters).
	NPUs    []NPUStats
	Traffic stats.Traffic
	Counter stats.CacheStats
	Hash    stats.CacheStats
	MAC     stats.CacheStats
}

// forceBlockInterleave selects the block-granular reference arbitration
// for every subsequent multi-NPU run; the differential harness uses it for
// A/B equivalence checks.
var forceBlockInterleave atomic.Bool

// ForceBlockInterleave globally selects the block-granular reference
// arbitration loop for multi-NPU runs started after the call.
func ForceBlockInterleave(on bool) { forceBlockInterleave.Store(on) }

// Run executes count copies of prog (the paper runs the same inference
// model on every NPU) under one shared bus and protection engine.
func Run(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config, count int) (Result, error) {
	if count <= 0 {
		return Result{}, fmt.Errorf("multinpu: count must be positive, got %d", count)
	}
	progs := make([]*compiler.Program, count)
	for i := range progs {
		progs[i] = prog
	}
	return RunMixed(progs, scheme, cfg)
}

// RunMemo is Run; the memo argument is ignored.
//
// Deprecated: the layer memo is gone; call Run.
func RunMemo(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config, count int, _ *npu.LayerMemo) (Result, error) {
	return Run(prog, scheme, cfg, count)
}

// RunMixed executes a different program per NPU — the mixed-tenancy
// extension of the Sec. V-C setup (each context still gets its own memory
// region and version table; only bandwidth, the security engine, and the
// metadata caches are shared).
func RunMixed(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config) (Result, error) {
	count := len(progs)
	if count == 0 {
		return Result{}, fmt.Errorf("multinpu: no programs")
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	for i, p := range progs {
		if p.MemoryTop > contextStride {
			return Result{}, fmt.Errorf("multinpu: program %d needs %d bytes, context stride is %d", i, p.MemoryTop, contextStride)
		}
	}
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
	if err != nil {
		return Result{}, err
	}

	machines := make([]*npu.Machine, count)
	for i := range machines {
		machines[i] = npu.NewMachineAt(progs[i], eng, uint64(i)*contextStride, uint64(i)*slotStride)
	}

	if count == 1 {
		// A lone NPU has the engine to itself: run whole DMA runs through
		// the batched path (cycle-identical to the block interleave below,
		// pinned by the differential suite).
		machines[0].Run()
		return assemble(scheme, eng, machines), nil
	}

	if forceBlockInterleave.Load() || !machines[0].Batched() {
		arbitrateBlocks(machines)
	} else {
		arbitrate(machines, eng, bus)
	}
	return assemble(scheme, eng, machines), nil
}

// arbitrate is the horizon arbitration loop (DESIGN.md §6f): each turn
// selects the earliest-ready machine exactly as the block reference does,
// but also computes the interaction horizon — the minimum ready time over
// the other machines — and lets the winner serve every block the reference
// would hand it in a row: its engine run path stops after the first block
// whose next issue time reaches the horizon. Other machines' ready times
// cannot change while the winner serves (NextReady mutates state only for
// machines between instructions, and every machine is active or exhausted
// after a scan), so the horizon is frozen for the whole turn and the serve
// order is exactly the reference's. Ties rotate as in the reference: the
// winner keeps serving only while strictly below every other ready time.
func arbitrate(machines []*npu.Machine, eng memprot.Engine, bus *dram.Bus) {
	a := newArbiter(machines)
	a.rs = newRounds(machines, eng, bus)
	for a.turn() {
	}
}

// arbiter is one contended run's arbitration state. ready caches every
// machine's NextReady time, noReady once it has run out of work. The same
// frozen-horizon argument makes the cache exact: a turn changes only the
// winner's ready time, and the winner's NextReady — the one call of a
// reference scan that can have side effects — runs right after its turn,
// with only side-effect-free calls between there and the point where the
// reference's next scan makes it.
type arbiter struct {
	machines []*npu.Machine
	ready    []uint64
	last     int
	// rs serves contended rounds (round.go); nil when the engine or the
	// bus has no round path.
	rs *rounds
}

// noReady marks a machine with no work left. The turn scan can never pick
// it: like the reference's skipped machine, it is below neither the best
// nor the horizon.
const noReady = ^uint64(0)

// newArbiter sizes the ready cache once per run and fills it in the
// reference's first scan order (1, ..., n-1, 0), which is also the order
// of the machines' first-instruction side effects.
func newArbiter(machines []*npu.Machine) *arbiter {
	a := &arbiter{machines: machines, ready: make([]uint64, len(machines))}
	for off := 1; off <= len(machines); off++ {
		a.refresh(off % len(machines))
	}
	return a
}

// refresh re-reads machine i's ready time into the cache.
//
//tnpu:noalloc
func (a *arbiter) refresh(i int) {
	ready, ok := a.machines[i].NextReady()
	if !ok {
		ready = noReady
	}
	a.ready[i] = ready
}

// turn serves one arbitration turn: a rotating scan of the cached ready
// times for the winner and the horizon, the winner's horizon-stopped
// serve, and the winner's refresh. It reports false, serving nothing, once
// every machine has run out of work.
//
//tnpu:noalloc
func (a *arbiter) turn() bool {
	if a.rs != nil && a.round() {
		return true
	}
	count := len(a.ready)
	best, bestReady := -1, noReady
	horizon := noReady
	i := a.last
	for off := 1; off <= count; off++ {
		if i++; i == count {
			i = 0
		}
		if ready := a.ready[i]; ready < bestReady {
			horizon = bestReady
			best, bestReady = i, ready
		} else if ready < horizon {
			horizon = ready
		}
	}
	if best < 0 {
		return false
	}
	a.machines[best].ServeRunUntil(horizon)
	a.refresh(best)
	a.last = best
	return true
}

// arbitrateBlocks is the retained block-granular reference: always serve
// one block to the machine whose next block is ready earliest; ties
// rotate so no NPU starves. The horizon loop above is pinned cycle- and
// stats-identical to this one by the differential harness and
// FuzzMultiVsBlock.
//
//tnpu:noalloc
func arbitrateBlocks(machines []*npu.Machine) {
	count := len(machines)
	last := 0
	for {
		best, bestReady := -1, ^uint64(0)
		for off := 1; off <= count; off++ {
			i := (last + off) % count
			ready, ok := machines[i].NextReady()
			if !ok {
				continue
			}
			if ready < bestReady {
				best, bestReady = i, ready
			}
		}
		if best < 0 {
			break
		}
		machines[best].ServeBlock()
		last = best
	}
}

// assemble flushes the engine and summarizes a finished run.
func assemble(scheme memprot.Scheme, eng memprot.Engine, machines []*npu.Machine) Result {
	res := Result{
		Scheme: scheme,
		PerNPU: make([]uint64, len(machines)),
		NPUs:   make([]NPUStats, len(machines)),
	}
	for i, m := range machines {
		res.PerNPU[i] = m.Cycles()
		res.NPUs[i] = NPUStats{
			Cycles:      m.Cycles(),
			Blocks:      m.BlocksMoved(),
			ReadBytes:   m.BlocksRead() * dram.BlockBytes,
			WriteBytes:  m.BlocksWritten() * dram.BlockBytes,
			Runs:        m.RunsServed(),
			RoundBlocks: m.RoundBlocks(),
		}
		if m.Cycles() > res.Cycles {
			res.Cycles = m.Cycles()
		}
	}
	eng.Flush(res.Cycles)
	res.Traffic = *eng.Traffic()
	res.Counter = *eng.CounterStats()
	res.Hash = *eng.HashStats()
	res.MAC = *eng.MACStats()
	return res
}
