// Package isa defines the NPU instruction trace the compiler emits and the
// simulator executes. The instruction set follows the Gemmini-style
// CPU-driven execution model of Fig. 8 — mvin/mvout move data between
// external memory and the scratchpad, preload stages weights into the
// systolic array, compute runs it — extended with the version-number
// operand the tree-less scheme adds to every mvin/mvout (Sec. IV-C).
package isa

import (
	"fmt"
	"strings"

	"tnpu/internal/tensor"
)

// Op enumerates NPU operations.
type Op uint8

const (
	// OpMvIn loads tensor data from external memory into the scratchpad,
	// MAC-verifying each 64B block against the supplied version.
	OpMvIn Op = iota
	// OpMvOut writes scratchpad data to external memory, generating MACs
	// with the supplied version.
	OpMvOut
	// OpPreload stages a weight tile from scratchpad into the PE array.
	OpPreload
	// OpCompute runs the systolic array for a precomputed cycle count.
	OpCompute
)

// String returns the mnemonic.
func (o Op) String() string {
	switch o {
	case OpMvIn:
		return "mvin"
	case OpMvOut:
		return "mvout"
	case OpPreload:
		return "preload"
	case OpCompute:
		return "compute"
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// Segment is one contiguous piece of a transfer. Dense tensor tiles are a
// single segment; embedding-table gathers are many small ones, which is
// what gives sent/tf their low-spatial-locality access pattern (Sec. III-B).
type Segment struct {
	Addr  uint64
	Bytes uint64
}

// Instr is one trace entry. Memory ops carry the tensor/tile identity and
// version number; compute ops carry their systolic cycle count.
type Instr struct {
	Op Op

	// Tensor/Tile identify the data for memory ops.
	Tensor tensor.ID
	Tile   int

	// Segments lists the memory ranges a mvin/mvout touches.
	Segments []Segment

	// Version is the version-number operand (tree-less scheme). The
	// baseline and unsecure schemes ignore it.
	Version uint64

	// Cycles is the PE-array busy time for OpCompute/OpPreload.
	Cycles uint64

	// Layer tags the originating model layer for per-layer statistics.
	Layer int

	// Deps lists trace indices this instruction must wait for, beyond the
	// implicit in-order execution of its own functional unit. The
	// compiler uses it to express tile dataflow (compute waits for its
	// mvins, mvout waits for its compute, layers wait for producers).
	Deps []int32
}

// TotalBytes sums the instruction's segment sizes.
func (in *Instr) TotalBytes() uint64 {
	var sum uint64
	for _, s := range in.Segments {
		sum += s.Bytes
	}
	return sum
}

// IsDMA reports whether the instruction occupies the DMA engine.
func (in *Instr) IsDMA() bool { return in.Op == OpMvIn || in.Op == OpMvOut }

// String renders a compact human-readable form for trace dumps.
func (in *Instr) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-7s L%d", in.Op, in.Layer)
	switch in.Op {
	case OpMvIn, OpMvOut:
		fmt.Fprintf(&b, " t%d.%d v%d %dB/%dseg", in.Tensor, in.Tile, in.Version, in.TotalBytes(), len(in.Segments))
	case OpCompute, OpPreload:
		fmt.Fprintf(&b, " %d cycles", in.Cycles)
	}
	if len(in.Deps) > 0 {
		fmt.Fprintf(&b, " deps=%v", in.Deps)
	}
	return b.String()
}

// Trace is a complete NPU program.
type Trace struct {
	Instrs []Instr
}

// Append adds an instruction and returns its index for dependency wiring.
func (t *Trace) Append(in Instr) int32 {
	t.Instrs = append(t.Instrs, in)
	return int32(len(t.Instrs) - 1)
}

// Validate checks structural invariants: deps point backwards, DMA ops have
// segments, compute ops have cycles. The simulator trusts a validated trace.
func (t *Trace) Validate() error {
	for i := range t.Instrs {
		in := &t.Instrs[i]
		for _, d := range in.Deps {
			if d < 0 || int(d) >= i {
				return fmt.Errorf("isa: instr %d dep %d not strictly earlier", i, d)
			}
		}
		switch in.Op {
		case OpMvIn, OpMvOut:
			if len(in.Segments) == 0 {
				return fmt.Errorf("isa: instr %d (%s) has no data", i, in.Op)
			}
			for k, seg := range in.Segments {
				if seg.Bytes == 0 {
					return fmt.Errorf("isa: instr %d (%s) segment %d has zero bytes", i, in.Op, k)
				}
			}
		case OpCompute:
			if in.Cycles == 0 {
				return fmt.Errorf("isa: instr %d compute with zero cycles", i)
			}
		case OpPreload:
			// zero-cycle preloads are legal (folded into compute).
		default:
			return fmt.Errorf("isa: instr %d has unknown op %d", i, in.Op)
		}
	}
	return nil
}

// Stats summarizes a trace.
type Stats struct {
	MvIns, MvOuts, Computes int
	BytesIn, BytesOut       uint64
	ComputeCycles           uint64
	Layers                  int
}

// Summarize computes aggregate statistics.
func (t *Trace) Summarize() Stats {
	var s Stats
	maxLayer := -1
	for i := range t.Instrs {
		in := &t.Instrs[i]
		switch in.Op {
		case OpMvIn:
			s.MvIns++
			s.BytesIn += in.TotalBytes()
		case OpMvOut:
			s.MvOuts++
			s.BytesOut += in.TotalBytes()
		case OpCompute:
			s.Computes++
			s.ComputeCycles += in.Cycles
		}
		if in.Layer > maxLayer {
			maxLayer = in.Layer
		}
	}
	s.Layers = maxLayer + 1
	return s
}
