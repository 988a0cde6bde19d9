// Package e2e models the end-to-end latency of Sec. V-D: from the arrival
// of (already securely transferred) sensor data to the return of the
// inference result to the CPU enclave. On top of the NPU execution itself
// it charges the CPU-side phases that also cross the protected memory:
//
//  1. initialization — the enclave streams model parameters and the input
//     into the NPU region through the uncached ts_write_block path
//     (Sec. IV-C), block by block under fresh versions;
//  2. NPU inference — the compiled trace on the simulator;
//  3. output return — the enclave reads the result tensor back through
//     ts_read_block.
//
// The paper evaluates conservatively with the parameter load charged to a
// single request; Amortized reports the recurring part (input + inference
// + output) for the many-requests-per-loaded-model case the paper
// discusses.
package e2e

import (
	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
	"tnpu/internal/stats"
)

// Result breaks the end-to-end latency into its phases.
type Result struct {
	Scheme memprot.Scheme
	// InitCycles covers the parameter + input ts_write streaming.
	InitCycles uint64
	// RunCycles is the NPU inference span (end of init to last retire).
	RunCycles uint64
	// OutputCycles covers the CPU reading back the result tensor.
	OutputCycles uint64
	// Total is the full sensor-to-result latency.
	Total   uint64
	Traffic stats.Traffic
}

// Amortized is the steady-state per-request latency once parameters are
// resident (init paid once across many requests).
func (r Result) Amortized() uint64 { return r.RunCycles + r.OutputCycles }

// isParameter aliases the compiler's naming convention for the data the
// CPU initializes (shared with internal/core and internal/attack).
func isParameter(name string) bool { return compiler.IsParameter(name) }

// Run executes the full end-to-end flow for one request on one NPU.
func Run(prog *compiler.Program, scheme memprot.Scheme, cfg npu.Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
	if err != nil {
		return Result{}, err
	}
	return run(prog, eng, newStream(eng, bus)), nil
}

// run is Run on a prepared engine, with the enclave's block streams
// served by s.
func run(prog *compiler.Program, eng memprot.Engine, s stream) Result {
	res := Result{Scheme: eng.Scheme()}

	// Phase 1: the CPU streams parameters through ts_write_block. One
	// version-table update per tensor, then block-granular writes.
	var t uint64
	for _, ten := range prog.Tensors {
		if !isParameter(ten.Name) {
			continue
		}
		t = eng.VersionFetch(t, memprot.VTableSlot(uint32(ten.ID), 0), true)
		t = s.write(t, ten.Addr, ten.Blocks())
	}
	res.InitCycles = t

	// Phase 2: NPU inference. The machine's requests queue behind the
	// initialization traffic on the shared bus.
	m := npu.NewMachine(prog, eng)
	m.Run()
	runEnd := m.Cycles()
	if runEnd < res.InitCycles {
		runEnd = res.InitCycles
	}
	res.RunCycles = runEnd - res.InitCycles

	// Phase 3: the CPU fetches the final output tensor via ts_read_block.
	out := prog.Tensors[len(prog.Tensors)-1]
	issue := eng.VersionFetch(runEnd, memprot.VTableSlot(uint32(out.ID), 0), false)
	done := s.read(issue, out.Addr, out.Blocks())
	res.OutputCycles = done - runEnd
	res.Total = done
	eng.Flush(done)
	res.Traffic = *eng.Traffic()
	return res
}

// stream is the enclave's uncached block stream (ts_write_block and
// ts_read_block): each block issues once the previous one has cleared the
// bus. That is a DMA issue window of depth 1, whose step max(r+1, busFree)
// equals busFree whenever one block costs at least one bus cycle, so on
// such buses the stream goes through the engine's run path. Otherwise, or
// when the engine has no run path (fault-injecting wrappers), it is the
// literal block loop.
type stream struct {
	eng memprot.Engine
	run memprot.RunEngine // nil: the literal block loop
	w   *dram.IssueWindow
}

func newStream(eng memprot.Engine, bus *dram.Bus) stream {
	s := stream{eng: eng}
	if re, ok := eng.(memprot.RunEngine); ok && bus.BlockCycles() >= 1 {
		s.run, s.w = re, dram.NewIssueWindow(1)
	}
	return s
}

// write streams n blocks from addr under version 1, the first issued at t,
// and returns the last block's bus-clear time (t when n is zero).
func (s stream) write(t, addr, n uint64) uint64 {
	if s.run != nil && n > 0 {
		t, _, _ = s.run.WriteRun(t, addr, 1, int(n), s.w, dram.NoHorizon)
		return t
	}
	for blk := uint64(0); blk < n; blk++ {
		t, _ = s.eng.WriteBlock(t, addr+blk*dram.BlockBytes, 1)
	}
	return t
}

// read streams n blocks from addr, the first issued at t, and returns when
// the latest block's data was ready (t when n is zero).
func (s stream) read(t, addr, n uint64) uint64 {
	done := t
	if s.run != nil && n > 0 {
		_, d, _ := s.run.ReadRun(t, addr, 1, int(n), s.w, dram.NoHorizon)
		if d > done {
			done = d
		}
		return done
	}
	for blk := uint64(0); blk < n; blk++ {
		busFree, dataAt := s.eng.ReadBlock(t, addr+blk*dram.BlockBytes, 1)
		t = busFree
		if dataAt > done {
			done = dataAt
		}
	}
	return done
}
