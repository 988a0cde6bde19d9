package compiler

import (
	"fmt"

	"tnpu/internal/isa"
	"tnpu/internal/model"
	"tnpu/internal/tensor"
)

// tiling holds the chosen GEMM tile shape.
type tiling struct {
	Tm, Tk, Tn int
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// fits checks the double-buffered SPM footprint of a candidate tile: A
// (Tm×Tk), B (Tk×Tn) and C (Tm×Tn) each need two buffers so transfers
// overlap compute.
func (st *compileState) fits(tm, tk, tn int) bool {
	elems := uint64(tm)*uint64(tk) + uint64(tk)*uint64(tn) + uint64(tm)*uint64(tn)
	return 2*elems*model.ElemBytes <= st.cfg.SPM.CapacityBytes
}

// chooseTiling picks the tile shape: grow Tm/Tn alternately (they divide
// the number of re-read passes over B/A respectively, so they dominate
// traffic), then deepen Tk (which only improves array-fill amortization).
func (st *compileState) chooseTiling(m, k, n int) (tiling, error) {
	t := tiling{
		Tm: min(m, st.cfg.Array.Rows),
		Tk: min(k, 64),
		Tn: min(n, st.cfg.Array.Cols),
	}
	if !st.fits(t.Tm, t.Tk, t.Tn) {
		// Shrink Tk as far as needed; tiles of one array pass must fit.
		for t.Tk > 1 && !st.fits(t.Tm, t.Tk, t.Tn) {
			t.Tk /= 2
		}
		if !st.fits(t.Tm, t.Tk, t.Tn) {
			return t, fmt.Errorf("SPM too small for a single %dx%dx%d array tile", t.Tm, t.Tk, t.Tn)
		}
	}
	for grew := true; grew; {
		grew = false
		if t.Tm < m && st.fits(min(2*t.Tm, m), t.Tk, t.Tn) {
			t.Tm = min(2*t.Tm, m)
			grew = true
		}
		if t.Tn < n && st.fits(t.Tm, t.Tk, min(2*t.Tn, n)) {
			t.Tn = min(2*t.Tn, n)
			grew = true
		}
	}
	for t.Tk < k && st.fits(t.Tm, min(2*t.Tk, k), t.Tn) {
		t.Tk = min(2*t.Tk, k)
	}
	return t, nil
}

// bTileSegments returns the DRAM segments of weight tile (ki,ni). By
// default weights sit in row-major order, so a Tk×Tn tile is Tk strided
// row slices; the PretiledWeights ablation stores each tile contiguously,
// restoring counter-line spatial locality.
func (st *compileState) bTileSegments(bTen tensor.Tensor, l *model.Layer, t tiling, nT, ki, ni, tk, tn int) []isa.Segment {
	bBytes := uint64(tk) * uint64(tn) * model.ElemBytes
	if st.cfg.PretiledWeights || nT == 1 {
		// Contiguous tile (explicitly pre-tiled, or full-width rows).
		addr := bTen.Addr + (uint64(ki)*uint64(nT)+uint64(ni))*uint64(t.Tk)*uint64(t.Tn)*model.ElemBytes
		if addr+bBytes > bTen.End() {
			if bBytes > bTen.Bytes {
				bBytes = bTen.Bytes
			}
			addr = bTen.End() - bBytes
		}
		return st.seg(isa.Segment{Addr: addr, Bytes: bBytes})
	}
	segs := st.segs.take(tk)
	rowBytes := uint64(l.N) * model.ElemBytes
	segBytes := uint64(tn) * model.ElemBytes
	for r := range segs {
		off := (uint64(ki*t.Tk)+uint64(r))*rowBytes + uint64(ni*t.Tn)*model.ElemBytes
		segs[r] = clampSeg(bTen, off, segBytes)
	}
	return segs
}

// compileGEMM lowers one GEMM layer with loop order (mi, ni, ki): the C
// tile accumulates in the scratchpad across the k loop and is written out
// once. B tiles are re-streamed per mi pass unless the whole weight tensor
// fits on-chip (bResident); the A row strip is re-read per ni pass.
func (st *compileState) compileGEMM(li int, l *model.Layer, p *layerPlan) error {
	t, mT, nT, kT := p.t, p.mT, p.nT, p.kT

	aTen := st.producerTensor(l.Inputs[0])
	pace := st.newPacer(l) // each k step's loads wait on the compute two steps back
	aVer := st.readVersion(aTen.ID)
	// aRowBytes is the effective DRAM bytes per output row of the im2col
	// view: conv layers re-read each input element once per full pass
	// thanks to the hardware im2col block. It is capped by the producer
	// tensor itself (activation×activation GEMMs count both operands in
	// IfmapBytes, but the strip reads only the first).
	effIn := l.IfmapBytes
	if effIn == 0 || effIn > aTen.Bytes {
		effIn = aTen.Bytes
	}
	aRowBytes := effIn / uint64(l.M)
	if aRowBytes == 0 {
		aRowBytes = 1
	}

	var bTen tensor.Tensor
	var bVer uint64
	if l.WeightBytes > 0 {
		bTen = st.alloc(l.Name+".w", l.WeightBytes)
		bVer = st.table.Bump(bTen.ID) // initialization wrote the weights
	} else if len(l.Inputs) < 2 {
		// Activation×activation GEMM (attention) over a single producer:
		// a self-product (scores over one tensor).
		bTen = aTen
		bVer = aVer
	} else {
		// Activation×activation GEMM: B is the second input.
		bTen = st.producerTensor(l.Inputs[1])
		bVer = st.readVersion(bTen.ID)
	}

	out := st.alloc(l.Name+".out", l.OfmapBytes)
	bump := st.expandOutput(out, mT*nT)
	outRowBytes := l.OfmapBytes / uint64(l.M)
	if outRowBytes == 0 {
		outRowBytes = 1
	}

	tr := &st.prog.Trace
	var bLoad int32 = -1
	if p.bResident {
		bLoad = tr.Append(isa.Instr{
			Op: isa.OpMvIn, Tensor: bTen.ID, Version: bVer, Layer: li,
			Segments: st.seg(isa.Segment{Addr: bTen.Addr, Bytes: bTen.Bytes}),
			Deps:     pace.deps,
		})
	}
	// bTileBytes uses the pre-tiled weight layout: the compiler stores
	// each (ki,ni) weight tile contiguously in DRAM (standard practice),
	// so a tile is one segment.
	for mi := 0; mi < mT; mi++ {
		tm := min(t.Tm, l.M-mi*t.Tm)
		stripBase := aTen.Addr + uint64(mi*t.Tm)*aRowBytes
		stripBytes := uint64(tm) * aRowBytes
		for ni := 0; ni < nT; ni++ {
			tn := min(t.Tn, l.N-ni*t.Tn)
			var lastCompute int32 = -1
			for ki := 0; ki < kT; ki++ {
				tk := min(t.Tk, l.K-ki*t.Tk)
				iterDeps := pace.loads()

				// A slice: the k-th horizontal slice of this row strip.
				aBytes := stripBytes * uint64(tk) / uint64(l.K)
				if aBytes == 0 {
					aBytes = 1
				}
				aOff := stripBase - aTen.Addr + stripBytes*uint64(ki*t.Tk)/uint64(l.K)
				aIn := tr.Append(isa.Instr{
					Op: isa.OpMvIn, Tensor: aTen.ID, Version: aVer, Layer: li,
					Segments: st.seg(clampSeg(aTen, aOff, aBytes)),
					Deps:     iterDeps,
				})

				bIn := bLoad
				if !p.bResident {
					bIn = tr.Append(isa.Instr{
						Op: isa.OpMvIn, Tensor: bTen.ID, Version: bVer, Layer: li,
						Segments: st.bTileSegments(bTen, l, t, nT, ki, ni, tk, tn),
						Deps:     iterDeps,
					})
				}

				lastCompute = tr.Append(isa.Instr{
					Op: isa.OpCompute, Layer: li,
					Cycles: st.cfg.Array.TileCycles(tm, tk, tn),
					Deps:   st.dep(aIn, bIn),
				})
				pace.done(lastCompute)
			}

			// Write the finished C tile: tm rows of tn columns, strided
			// across the row-major ofmap.
			// The tile's output slice: layers whose DRAM ofmap is smaller
			// than the GEMM M×N surface (LSTM/GRU gate reductions) write
			// proportionally less; conv/FC write the exact tile.
			ver, vtile := bump(mi*nT + ni)
			var segs []isa.Segment
			rowSeg := outRowBytes * uint64(tn) / uint64(l.N)
			if rowSeg == 0 {
				rowSeg = 1
			}
			if nT == 1 {
				// Full-width tile: the rows are contiguous in the ofmap.
				addr := out.Addr + uint64(mi*t.Tm)*outRowBytes
				bytes := uint64(tm) * outRowBytes
				if addr+bytes > out.End() {
					addr = out.End() - bytes
				}
				segs = st.seg(isa.Segment{Addr: addr, Bytes: bytes})
			} else {
				segs = st.segs.take(tm)
				colOff := outRowBytes * uint64(ni*t.Tn) / uint64(l.N)
				for r := range segs {
					addr := out.Addr + uint64(mi*t.Tm+r)*outRowBytes + colOff
					if addr+rowSeg > out.End() {
						addr = out.End() - rowSeg
					}
					segs[r] = isa.Segment{Addr: addr, Bytes: rowSeg}
				}
			}
			tr.Append(isa.Instr{
				Op: isa.OpMvOut, Tensor: out.ID, Tile: vtile, Version: ver, Layer: li,
				Segments: segs,
				Deps:     st.dep(lastCompute),
			})
		}
	}
	st.layerOut = append(st.layerOut, out.ID)
	return st.mergeOutput(out, mT*nT)
}
