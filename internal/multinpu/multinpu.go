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
	return RunMemo(prog, scheme, cfg, count, nil)
}

// RunMemo is Run with a shared layer memo (may be nil). Layer memoization
// applies to single-NPU runs, which execute whole DMA runs on one machine;
// multi-NPU runs interleave machines on the shared engine, so their layers
// have no private state signature and always run live.
func RunMemo(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config, count int, memo *npu.LayerMemo) (Result, error) {
	if count <= 0 {
		return Result{}, fmt.Errorf("multinpu: count must be positive, got %d", count)
	}
	progs := make([]*compiler.Program, count)
	for i := range progs {
		progs[i] = prog
	}
	return RunMixed(progs, scheme, cfg, memo)
}

// RunMixed executes a different program per NPU — the mixed-tenancy
// extension of the Sec. V-C setup (each context still gets its own memory
// region and version table; only bandwidth, the security engine, and the
// metadata caches are shared). memo (may be nil) gives mixed-tenancy runs
// the same treatment as RunMemo's homogeneous runs.
func RunMixed(progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config, memo *npu.LayerMemo) (Result, error) {
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
		// pinned by the differential suite) and let the memo replay
		// recurring layers.
		machines[0].RunMemoized(memo)
		return assemble(scheme, eng, machines), nil
	}

	if forceBlockInterleave.Load() || !machines[0].Batched() {
		arbitrateBlocks(machines)
	} else {
		arbitrate(machines)
	}
	return assemble(scheme, eng, machines), nil
}

// arbitrate is the horizon arbitration loop (DESIGN.md §6f): each scan
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
//
//tnpu:noalloc
func arbitrate(machines []*npu.Machine) {
	count := len(machines)
	last := 0
	for {
		best, bestReady := -1, ^uint64(0)
		horizon := ^uint64(0)
		for off := 1; off <= count; off++ {
			i := (last + off) % count
			ready, ok := machines[i].NextReady()
			if !ok {
				continue
			}
			if ready < bestReady {
				horizon = bestReady
				best, bestReady = i, ready
			} else if ready < horizon {
				horizon = ready
			}
		}
		if best < 0 {
			break
		}
		machines[best].ServeRunUntil(horizon)
		last = best
	}
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
			Cycles:     m.Cycles(),
			Blocks:     m.BlocksMoved(),
			ReadBytes:  m.BlocksRead() * dram.BlockBytes,
			WriteBytes: m.BlocksWritten() * dram.BlockBytes,
			Runs:       m.RunsServed(),
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
