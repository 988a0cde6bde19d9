// Package tracecheck statically verifies the version discipline of a
// compiled NPU program — the linter a compiler team would gate on. It
// re-derives, from the trace alone, the invariants the tree-less scheme
// depends on (Sec. III-C/IV-D):
//
//  1. every mvin reads blocks that initialization or an earlier mvout
//     produced (no reads of never-written protected memory);
//  2. an mvin's version operand matches the last writer's version for the
//     blocks it covers (strided-tile boundary blocks, which legitimately
//     carry the adjacent tile's version, are counted separately);
//  3. versions per (tensor, tile) only move forward, and no (tensor,
//     tile, version) is written twice — replayable states never exist;
//  4. dependency edges are sound (backward-pointing, in range).
package tracecheck

import (
	"fmt"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
)

// Report summarizes one check run.
type Report struct {
	Instrs, MvIns, MvOuts int

	// AlignedReads are mvin blocks whose version operand matched the
	// recorded writer version; BoundaryReads carried a neighbouring
	// tile's version (tracked per block by the software).
	AlignedReads, BoundaryReads uint64

	// Errors are hard violations; a clean trace has none.
	Errors []string
}

// Ok reports whether the trace passed.
func (r *Report) Ok() bool { return len(r.Errors) == 0 }

// String renders a one-line summary.
func (r *Report) String() string {
	status := "OK"
	if !r.Ok() {
		status = fmt.Sprintf("%d violations", len(r.Errors))
	}
	return fmt.Sprintf("tracecheck: %s — %d instrs (%d mvin / %d mvout), %d aligned reads, %d boundary reads",
		status, r.Instrs, r.MvIns, r.MvOuts, r.AlignedReads, r.BoundaryReads)
}

const maxErrors = 20

func (r *Report) errf(format string, args ...interface{}) {
	if len(r.Errors) < maxErrors {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// Check runs all static validations over the program.
func Check(prog *compiler.Program) Report {
	var r Report
	r.Instrs = len(prog.Trace.Instrs)

	// Per-block last-written version, seeded by initialization: the input
	// and parameters are written at version 1 before the trace starts.
	written := make(map[uint64]uint64)
	for _, ten := range prog.Tensors {
		if !compiler.IsParameter(ten.Name) {
			continue
		}
		for blk := uint64(0); blk < ten.Blocks(); blk++ {
			written[ten.Addr+blk*dram.BlockBytes] = 1
		}
	}

	// Per-(tensor,tile): last version written and the set of (version)
	// values seen — forward motion and no duplicates.
	type tileKey struct {
		tensor uint32
		tile   int
	}
	lastVer := make(map[tileKey]uint64)

	for i := range prog.Trace.Instrs {
		in := &prog.Trace.Instrs[i]
		for _, d := range in.Deps {
			if d < 0 || int(d) >= i {
				r.errf("instr %d: dep %d not strictly earlier", i, d)
			}
		}
		switch in.Op {
		case isa.OpMvOut:
			r.MvOuts++
			k := tileKey{uint32(in.Tensor), in.Tile}
			if prev, ok := lastVer[k]; ok && in.Version <= prev {
				r.errf("instr %d: tensor %d tile %d version %d not above previous %d (replayable state)",
					i, in.Tensor, in.Tile, in.Version, prev)
			}
			lastVer[k] = in.Version
			forBlocks(in, func(addr uint64) {
				written[addr] = in.Version
			})
		case isa.OpMvIn:
			r.MvIns++
			forBlocks(in, func(addr uint64) {
				v, ok := written[addr]
				switch {
				case !ok:
					r.errf("instr %d: reads never-written block %#x", i, addr)
				case v == in.Version:
					r.AlignedReads++
				default:
					r.BoundaryReads++
				}
			})
		}
	}

	// Boundary reads must be the rare exception, not the rule.
	if r.AlignedReads > 0 && r.BoundaryReads > r.AlignedReads/5 {
		r.errf("boundary reads (%d) exceed 20%% of aligned reads (%d)", r.BoundaryReads, r.AlignedReads)
	}
	return r
}

func forBlocks(in *isa.Instr, fn func(addr uint64)) {
	for _, seg := range in.Segments {
		first := seg.Addr &^ (dram.BlockBytes - 1)
		for addr := first; addr < seg.Addr+seg.Bytes; addr += dram.BlockBytes {
			fn(addr)
		}
	}
}
