// Package compiler lowers a DNN layer graph into the tiled NPU instruction
// trace of Fig. 8/13: per-layer GEMM tiling sized to the scratchpad with
// double buffering, mvin/mvout instructions annotated with software-managed
// version numbers (tile-expanded for outputs, merged after each layer —
// exactly the Fig. 9 discipline), and embedding layers lowered to
// fine-grained row gathers at table-dependent addresses.
package compiler

import (
	"fmt"
	"strings"

	"tnpu/internal/isa"
	"tnpu/internal/model"
	"tnpu/internal/spm"
	"tnpu/internal/systolic"
	"tnpu/internal/tensor"
)

// IsWeight reports whether a tensor name denotes a layer's weights (the
// compiler names them "<layer>.w").
func IsWeight(name string) bool { return strings.HasSuffix(name, ".w") }

// IsParameter reports whether a tensor is initialization-written data —
// the model input or a layer's weights — i.e. the tensors the CPU enclave
// streams into the NPU region before inference (Sec. V-D phase 1).
func IsParameter(name string) bool { return name == "input" || IsWeight(name) }

// Config selects the target NPU and versioning policy.
type Config struct {
	Array systolic.Array
	SPM   spm.SPM
	// PerTensorVersions disables tile expansion (ablation): outputs are
	// written tile by tile but share one tensor version, which forces
	// whole-tensor version semantics. The default (false) is the paper's
	// per-tile scheme of Fig. 9.
	PerTensorVersions bool
	// PretiledWeights lays each weight tile out contiguously in DRAM
	// (an ablation quantifying how much counter-line spatial locality an
	// NPU toolchain's weight pre-tiling would restore). The default is
	// the plain row-major operand layout the paper's SCALE-Sim-based
	// simulator models, whose strided tile reads are part of the
	// low-spatial-locality behaviour of Sec. V-B.
	PretiledWeights bool
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if err := c.Array.Validate(); err != nil {
		return err
	}
	return c.SPM.Validate()
}

// Program is a compiled NPU workload.
type Program struct {
	Model   *model.Model
	Trace   isa.Trace
	Tensors []tensor.Tensor // indexed by tensor.ID
	// Table holds the version numbers after compile-time simulation of
	// the software's bookkeeping; mvin/mvout instructions embed the
	// values the software would pass at runtime.
	Table *tensor.Table
	// MemoryTop is the highest NPU-region address allocated.
	MemoryTop uint64
	// LayerFirst/LayerLast delimit each layer's instruction range.
	LayerFirst, LayerLast []int32
}

// TensorByName finds a tensor descriptor (weights are named
// "<layer>.w", activations "<layer>.out", the input "input").
func (p *Program) TensorByName(name string) (tensor.Tensor, bool) {
	for _, t := range p.Tensors {
		if t.Name == name {
			return t, true
		}
	}
	return tensor.Tensor{}, false
}

// compileState carries per-compilation bookkeeping.
type compileState struct {
	cfg   Config
	m     *model.Model
	prog  *Program
	table *tensor.Table

	nextAddr uint64
	nextID   tensor.ID

	layerOut []tensor.ID // output tensor per layer
	refs     map[tensor.ID]int
	rng      uint64

	// segs and deps back every instruction's Segments and Deps lists.
	segs arena[isa.Segment]
	deps arena[int32]
}

const pageAlign = 4096

// Compile lowers m for the given NPU configuration.
func Compile(m *model.Model, cfg Config) (*Program, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	st := &compileState{
		cfg:   cfg,
		m:     m,
		prog:  &Program{Model: m},
		table: tensor.NewTable(),
		refs:  make(map[tensor.ID]int),
		rng:   0x9e3779b97f4a7c15,
	}
	st.prog.Table = st.table

	// Plan every layer, then allocate the trace and its arenas once.
	plans := make([]layerPlan, len(m.Layers))
	var instrs, segs, deps int
	for li := range m.Layers {
		p, err := st.plan(&m.Layers[li])
		if err != nil {
			return nil, fmt.Errorf("compiler: %s layer %d (%s): %w", m.Short, li, m.Layers[li].Name, err)
		}
		plans[li] = p
		instrs += p.instrs
		segs += p.segs
		deps += p.deps
	}
	st.prog.Trace.Instrs = make([]isa.Instr, 0, instrs)
	st.segs.free = make([]isa.Segment, segs)
	st.deps.free = make([]int32, deps)
	st.prog.LayerFirst = make([]int32, 0, len(m.Layers))
	st.prog.LayerLast = make([]int32, 0, len(m.Layers))
	st.layerOut = make([]tensor.ID, 0, len(m.Layers))

	input := st.alloc("input", m.InputBytes)
	st.table.Bump(input.ID) // initialization wrote the input once

	// Count activation consumers so dead feature maps can be dropped
	// from the version table (buffer reuse, Sec. IV-D storage sizing).
	consumers := make([]int, len(m.Layers))
	inputConsumers := 0
	for i := range m.Layers {
		for _, p := range m.Layers[i].Inputs {
			if p == -1 {
				inputConsumers++
			} else {
				consumers[p]++
			}
		}
	}
	st.refs[input.ID] = inputConsumers

	for li := range m.Layers {
		st.prog.LayerFirst = append(st.prog.LayerFirst, int32(len(st.prog.Trace.Instrs)))
		if err := st.compileLayer(li, &plans[li]); err != nil {
			return nil, fmt.Errorf("compiler: %s layer %d (%s): %w", m.Short, li, m.Layers[li].Name, err)
		}
		st.prog.LayerLast = append(st.prog.LayerLast, int32(len(st.prog.Trace.Instrs)-1))

		// Release producers whose last consumer just ran.
		for _, p := range m.Layers[li].Inputs {
			id := input.ID
			if p >= 0 {
				id = st.layerOut[p]
				consumers[p]--
				if consumers[p] == 0 && st.table.Registered(id) {
					st.table.Drop(id)
				}
			} else {
				st.refs[id]--
				if st.refs[id] == 0 {
					st.table.Drop(id)
				}
			}
		}
	}
	if len(st.prog.Trace.Instrs) != instrs || !st.segs.exact() || !st.deps.exact() {
		return nil, fmt.Errorf("compiler: internal error: %s emission does not match its plan", m.Short)
	}
	st.prog.MemoryTop = st.nextAddr
	if err := st.prog.Trace.Validate(); err != nil {
		return nil, fmt.Errorf("compiler: internal trace error: %w", err)
	}
	return st.prog, nil
}

// alloc creates a page-aligned tensor in the NPU region and registers it.
func (st *compileState) alloc(name string, bytes uint64) tensor.Tensor {
	t := tensor.Tensor{ID: st.nextID, Name: name, Addr: st.nextAddr, Bytes: bytes}
	st.nextID++
	st.nextAddr += (bytes + pageAlign - 1) &^ (pageAlign - 1)
	st.prog.Tensors = append(st.prog.Tensors, t)
	st.table.Register(t.ID)
	return t
}

// producerTensor resolves a layer input index to its tensor.
func (st *compileState) producerTensor(p int) tensor.Tensor {
	if p == -1 {
		return st.prog.Tensors[0]
	}
	return st.prog.Tensors[st.layerOut[p]]
}

// readVersion is the version the software passes for an mvin of a merged
// tensor.
func (st *compileState) readVersion(id tensor.ID) uint64 {
	return st.table.TileVersion(id, 0)
}

func (st *compileState) compileLayer(li int, p *layerPlan) error {
	l := &st.m.Layers[li]
	switch l.Kind {
	case model.KindGEMM:
		return st.compileGEMM(li, l, p)
	case model.KindGather:
		return st.compileGather(li, l, p)
	case model.KindEltwise:
		return st.compileEltwise(li, l, p)
	case model.KindPool:
		return st.compilePool(li, l, p)
	}
	return fmt.Errorf("unknown layer kind %v", l.Kind)
}

// expandOutput registers the layer output and expands its version entry
// into tiles per the configured granularity, returning a bump function.
func (st *compileState) expandOutput(out tensor.Tensor, tiles int) func(tile int) (version uint64, vtile int) {
	if st.cfg.PerTensorVersions || tiles == 1 || tiles > tensor.MaxTiles {
		// Whole-tensor versioning: one bump covers the whole layer; each
		// tile mvout carries the same new version.
		v := st.table.Bump(out.ID)
		return func(int) (uint64, int) { return v, 0 }
	}
	st.table.Expand(out.ID, tiles)
	return func(tile int) (uint64, int) { return st.table.BumpTile(out.ID, tile), tile }
}

// mergeOutput collapses the output back to a single version number.
func (st *compileState) mergeOutput(out tensor.Tensor, tiles int) error {
	if st.cfg.PerTensorVersions || tiles == 1 || tiles > tensor.MaxTiles {
		return nil
	}
	return st.table.Merge(out.ID)
}
