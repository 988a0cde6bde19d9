package compiler

import (
	"tnpu/internal/isa"
	"tnpu/internal/model"
	"tnpu/internal/tensor"
)

// nextRand steps the compile-time PRNG used for embedding row indices
// (token ids are data-dependent at runtime; a fixed-seed LCG keeps the
// simulation deterministic while preserving the scattered access pattern).
func (st *compileState) nextRand() uint64 {
	st.rng = st.rng*6364136223846793005 + 1442695040888963407
	return st.rng >> 11
}

// compileGather lowers an embedding lookup: each of l.Rows tokens reads a
// RowBytes row at a pseudo-random offset in the table — many small mvins
// with low spatial locality, the access pattern that defeats counter
// caching in sent/tf (Sec. III-B). Gathered rows are staged in the
// scratchpad and written out in contiguous chunks.
func (st *compileState) compileGather(li int, l *model.Layer, p *layerPlan) error {
	table := st.alloc(l.Name+".w", l.WeightBytes)
	tableVer := st.table.Bump(table.ID) // initialization loaded the table
	out := st.alloc(l.Name+".out", l.OfmapBytes)

	vocab := l.WeightBytes / uint64(l.RowBytes)
	chunks := p.chunks
	bump := st.expandOutput(out, chunks)

	// Token ids come from the producer; each chunk's row loads are paced
	// on the chunk store two chunks back.
	pace := st.newPacer(l)
	tr := &st.prog.Trace
	row := 0
	for c := 0; c < chunks; c++ {
		chunkDeps := pace.loads()
		var lastIn int32 = -1
		chunkRows := min(p.rowsPerChunk, l.Rows-row)
		for r := 0; r < chunkRows; r++ {
			idx := st.nextRand() % vocab
			lastIn = tr.Append(isa.Instr{
				Op: isa.OpMvIn, Tensor: table.ID, Version: tableVer, Layer: li,
				Segments: st.seg(isa.Segment{Addr: table.Addr + idx*uint64(l.RowBytes), Bytes: uint64(l.RowBytes)}),
				Deps:     chunkDeps,
			})
		}
		// Output offsets are proportional to the ofmap: sampled gathers
		// (decode-time lookups) keep only a fraction of the fetched rows.
		ver, vtile := bump(c)
		outAddr := out.Addr + l.OfmapBytes*uint64(c)/uint64(chunks)
		outBytes := out.Addr + l.OfmapBytes*uint64(c+1)/uint64(chunks) - outAddr
		if outBytes == 0 {
			outBytes = 1
		}
		pace.done(tr.Append(isa.Instr{
			Op: isa.OpMvOut, Tensor: out.ID, Tile: vtile, Version: ver, Layer: li,
			Segments: st.seg(isa.Segment{Addr: outAddr, Bytes: outBytes}),
			Deps:     st.dep(lastIn),
		}))
		row += chunkRows
	}
	st.layerOut = append(st.layerOut, out.ID)
	return st.mergeOutput(out, chunks)
}

// compileEltwise lowers a residual add: stream matching chunks of both
// inputs through the scratchpad, one vector op per chunk.
func (st *compileState) compileEltwise(li int, l *model.Layer, p *layerPlan) error {
	aTen := st.producerTensor(l.Inputs[0])
	bTen := aTen
	if len(l.Inputs) > 1 {
		bTen = st.producerTensor(l.Inputs[1])
	}
	aVer := st.readVersion(aTen.ID)
	bVer := st.readVersion(bTen.ID)
	out := st.alloc(l.Name+".out", l.OfmapBytes)

	chunk, chunks := p.chunkBytes, p.chunks
	bump := st.expandOutput(out, chunks)
	pace := st.newPacer(l)
	tr := &st.prog.Trace
	for c := 0; c < chunks; c++ {
		off := uint64(c) * chunk
		bytes := chunk
		if off+bytes > l.OfmapBytes {
			bytes = l.OfmapBytes - off
		}
		chunkDeps := pace.loads()
		aIn := tr.Append(isa.Instr{
			Op: isa.OpMvIn, Tensor: aTen.ID, Version: aVer, Layer: li,
			Segments: st.seg(clampSeg(aTen, off, bytes)),
			Deps:     chunkDeps,
		})
		bIn := tr.Append(isa.Instr{
			Op: isa.OpMvIn, Tensor: bTen.ID, Version: bVer, Layer: li,
			Segments: st.seg(clampSeg(bTen, off, bytes)),
			Deps:     chunkDeps,
		})
		comp := tr.Append(isa.Instr{
			Op: isa.OpCompute, Layer: li,
			Cycles: st.cfg.Array.VectorCycles(int(bytes / model.ElemBytes)),
			Deps:   st.dep(aIn, bIn),
		})
		pace.done(comp)
		ver, vtile := bump(c)
		tr.Append(isa.Instr{
			Op: isa.OpMvOut, Tensor: out.ID, Tile: vtile, Version: ver, Layer: li,
			Segments: st.seg(isa.Segment{Addr: out.Addr + off, Bytes: bytes}),
			Deps:     st.dep(comp),
		})
	}
	st.layerOut = append(st.layerOut, out.ID)
	return st.mergeOutput(out, chunks)
}

// clampSeg builds a segment of (off, bytes) within t, sliding or shrinking
// it to stay inside the tensor when a consumer's chunking overruns a
// smaller producer.
func clampSeg(t tensor.Tensor, off, bytes uint64) isa.Segment {
	if bytes > t.Bytes {
		bytes = t.Bytes
	}
	addr := t.Addr + off
	if addr+bytes > t.End() {
		addr = t.End() - bytes
	}
	return isa.Segment{Addr: addr, Bytes: bytes}
}

// compilePool lowers pooling: stream the input, write the reduced output.
func (st *compileState) compilePool(li int, l *model.Layer, p *layerPlan) error {
	in := st.producerTensor(l.Inputs[0])
	inVer := st.readVersion(in.ID)
	out := st.alloc(l.Name+".out", l.OfmapBytes)

	chunk, chunks := p.chunkBytes, p.chunks
	bump := st.expandOutput(out, chunks)
	outChunk := l.OfmapBytes / uint64(chunks)
	if outChunk == 0 {
		outChunk = l.OfmapBytes
	}
	pace := st.newPacer(l)
	tr := &st.prog.Trace
	for c := 0; c < chunks; c++ {
		off := uint64(c) * chunk
		bytes := chunk
		if off+bytes > l.IfmapBytes {
			bytes = l.IfmapBytes - off
		}
		aIn := tr.Append(isa.Instr{
			Op: isa.OpMvIn, Tensor: in.ID, Version: inVer, Layer: li,
			Segments: st.seg(clampSeg(in, off, bytes)),
			Deps:     pace.loads(),
		})
		comp := tr.Append(isa.Instr{
			Op: isa.OpCompute, Layer: li,
			Cycles: st.cfg.Array.VectorCycles(int(bytes / model.ElemBytes)),
			Deps:   st.dep(aIn),
		})
		pace.done(comp)
		ver, vtile := bump(c)
		oOff := uint64(c) * outChunk
		oBytes := outChunk
		if c == chunks-1 {
			oBytes = l.OfmapBytes - oOff
		}
		tr.Append(isa.Instr{
			Op: isa.OpMvOut, Tensor: out.ID, Tile: vtile, Version: ver, Layer: li,
			Segments: st.seg(isa.Segment{Addr: out.Addr + oOff, Bytes: oBytes}),
			Deps:     st.dep(comp),
		})
	}
	st.layerOut = append(st.layerOut, out.ID)
	return st.mergeOutput(out, chunks)
}
