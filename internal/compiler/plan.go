package compiler

import (
	"fmt"

	"tnpu/internal/isa"
	"tnpu/internal/model"
)

// Exact-size emission. Compile plans every layer before it writes an
// instruction: the plan fixes the loop trip counts the emitter iterates
// over and, from them, exactly how many instructions, segments and
// dependency entries the layer writes. The trace and two per-program
// arenas are then allocated once at their final size. Growing them by
// append instead was most of a compile's allocated bytes, and a separate
// slice per instruction most of its allocations.

// layerPlan is one layer's emission plan.
type layerPlan struct {
	// GEMM: the tile shape, the tile counts along M, N and K, and whether
	// the whole weight tensor stays on-chip (loaded once, not per mi pass).
	t          tiling
	mT, nT, kT int
	bResident  bool

	// Streaming layers: the chunk count, and the chunk size in rows
	// (gather) or bytes (eltwise, pool).
	chunks       int
	rowsPerChunk int
	chunkBytes   uint64

	// What the layer's emission writes: instructions, Segments entries
	// and Deps entries.
	instrs, segs, deps int
}

// plan computes layer l's emission plan under the compile's configuration.
func (st *compileState) plan(l *model.Layer) (layerPlan, error) {
	var p layerPlan
	iters := 0 // pipelined iterations, each paced on the one two before it
	switch l.Kind {
	case model.KindGEMM:
		t, err := st.chooseTiling(l.M, l.K, l.N)
		if err != nil {
			return p, err
		}
		p.t = t
		p.mT, p.nT, p.kT = ceilDiv(l.M, t.Tm), ceilDiv(l.N, t.Tn), ceilDiv(l.K, t.Tk)
		// The weight tensor plus double-buffered A and C tiles fit on-chip.
		p.bResident = l.WeightBytes > 0 && st.cfg.SPM.Fits(
			l.WeightBytes,
			2*uint64(t.Tm)*uint64(t.Tk)*model.ElemBytes,
			2*uint64(t.Tm)*uint64(t.Tn)*model.ElemBytes)
		tiles := p.mT * p.nT
		iters = tiles * p.kT
		// Per k step: an A load, a B load unless B is resident, a compute;
		// per output tile: one store.
		perIter := 3
		if p.bResident {
			perIter = 2
			p.instrs, p.segs = 1, 1 // the one whole-tensor B load
		}
		p.instrs += tiles * (p.kT*perIter + 1)
		p.segs += iters // one A slice per k step
		switch {
		case p.bResident:
		case st.cfg.PretiledWeights || p.nT == 1:
			p.segs += iters // contiguous B tiles
		default:
			p.segs += tiles * l.K // one strided row per k of each B tile
		}
		if p.nT == 1 {
			p.segs += p.mT // full-width C tiles are contiguous
		} else {
			p.segs += p.nT * l.M // one strided row per m of each C tile
		}
		p.deps = 2*iters + tiles // compute on its two loads, store on its compute
	case model.KindGather:
		p.rowsPerChunk = max(int(st.cfg.SPM.TileBudget(2))/l.RowBytes, 1)
		p.chunks = ceilDiv(l.Rows, p.rowsPerChunk)
		iters = p.chunks
		p.instrs = l.Rows + p.chunks // a load per row, a store per chunk
		p.segs = p.instrs
		p.deps = p.chunks // store on the chunk's last row
	case model.KindEltwise:
		p.chunkBytes = st.cfg.SPM.TileBudget(3)
		p.chunks = int((l.OfmapBytes + p.chunkBytes - 1) / p.chunkBytes)
		iters = p.chunks
		// Two loads, a compute and a store per chunk.
		p.instrs, p.segs, p.deps = 4*p.chunks, 3*p.chunks, 3*p.chunks
	case model.KindPool:
		p.chunkBytes = st.cfg.SPM.TileBudget(2)
		p.chunks = int((l.IfmapBytes + p.chunkBytes - 1) / p.chunkBytes)
		iters = p.chunks
		// A load, a compute and a store per chunk.
		p.instrs, p.segs, p.deps = 3*p.chunks, 2*p.chunks, 2*p.chunks
	default:
		return p, fmt.Errorf("unknown layer kind %v", l.Kind)
	}
	// The producer list once, then a paced copy of it with one more entry
	// for every iteration from the third on (see pacer).
	waits := producerWaits(operandInputs(l))
	p.deps += waits + max(iters-2, 0)*(waits+1)
	return p, nil
}

// operandInputs returns the producers a layer's loads read: the first
// input, plus the second for an eltwise add and for a weightless
// (activation×activation) GEMM.
func operandInputs(l *model.Layer) []int {
	if len(l.Inputs) >= 2 && (l.Kind == model.KindEltwise || (l.Kind == model.KindGEMM && l.WeightBytes == 0)) {
		return l.Inputs[:2]
	}
	return l.Inputs[:1]
}

// producerWaits counts the inputs a layer waits on: every producing
// layer, but not the model input, which is initialized before the run.
func producerWaits(inputs []int) int {
	n := 0
	for _, p := range inputs {
		if p >= 0 {
			n++
		}
	}
	return n
}

// arena hands out cap-limited sub-slices of one backing array sized by
// the plan. The cap limit makes an append to a handed-out slice copy it
// rather than write into the next slice's slots.
type arena[T any] struct {
	free []T
	over int // entries taken past the planned size
}

// take returns the next n entries, or nil for n == 0.
func (a *arena[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	if n > len(a.free) {
		a.over += n
		return make([]T, n)
	}
	s := a.free[:n:n]
	a.free = a.free[n:]
	return s
}

// exact reports whether emission took exactly the planned size.
func (a *arena[T]) exact() bool { return len(a.free) == 0 && a.over == 0 }

// seg returns a one-entry Segments list.
func (st *compileState) seg(s isa.Segment) []isa.Segment {
	out := st.segs.take(1)
	out[0] = s
	return out
}

// dep returns a Deps list on the given instructions.
func (st *compileState) dep(ids ...int32) []int32 {
	out := st.deps.take(len(ids))
	copy(out, ids)
	return out
}

// producerDeps returns the Deps list of a layer's first loads: the last
// instruction of each producing layer among inputs.
func (st *compileState) producerDeps(inputs []int) []int32 {
	out := st.deps.take(producerWaits(inputs))
	i := 0
	for _, p := range inputs {
		if p >= 0 {
			out[i] = st.prog.LayerLast[p]
			i++
		}
	}
	return out
}

// pacer paces a layer's pipelined loads: iteration j's loads wait on the
// layer's producers and, from j = 2 on, on iteration j-2's paced
// instruction, so the DMA prefetches exactly one tile ahead — the
// double-buffering discipline of Sec. II-C.
type pacer struct {
	st   *compileState
	deps []int32  // the producer deps every iteration waits on
	back [2]int32 // the paced instructions of the last two iterations
	j    int      // iterations finished
}

// newPacer starts pacing layer l's loads on its producers.
func (st *compileState) newPacer(l *model.Layer) pacer {
	return pacer{st: st, deps: st.producerDeps(operandInputs(l))}
}

// loads returns the Deps list of the current iteration's loads.
func (p *pacer) loads() []int32 {
	if p.j < 2 {
		return p.deps
	}
	out := p.st.deps.take(len(p.deps) + 1)
	copy(out, p.deps)
	out[len(p.deps)] = p.back[p.j%2]
	return out
}

// done ends the current iteration with its paced instruction.
func (p *pacer) done(id int32) {
	p.back[p.j%2] = id
	p.j++
}
