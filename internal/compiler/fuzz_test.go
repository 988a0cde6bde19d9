package compiler

import (
	"testing"

	"tnpu/internal/isa"
	"tnpu/internal/model"
	"tnpu/internal/spm"
	"tnpu/internal/systolic"
)

// FuzzCompileRandomGraphs builds arbitrary (but well-formed) layer graphs
// from fuzz input and requires compilation to succeed and produce a trace
// whose version discipline is internally consistent: every read of a
// produced block carries the producing mvout's version (checked here
// without importing tracecheck, which would create an import cycle in
// reverse — the standalone linter covers compiled zoo models).
func FuzzCompileRandomGraphs(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6})
	f.Add([]byte{10, 0, 200, 40, 9, 100, 3, 7})
	f.Add([]byte{255, 255, 255})

	f.Fuzz(func(t *testing.T, spec []byte) {
		m := graphFromSpec(spec)
		if m == nil {
			return
		}
		cfg := Config{Array: systolic.Array{Rows: 16, Cols: 16}, SPM: spm.SPM{CapacityBytes: 64 << 10}}
		prog, err := Compile(m, cfg)
		if err != nil {
			t.Fatalf("compile of valid graph failed: %v\nmodel: %+v", err, m.Layers)
		}
		if err := prog.Trace.Validate(); err != nil {
			t.Fatalf("invalid trace: %v", err)
		}
		requireExactSize(t, "fuzz graph", prog)
		// Version discipline: replay the trace's writes per block; every
		// mvin of a non-initialization tensor must see its writer's
		// version on the vast majority of blocks.
		written := make(map[uint64]uint64)
		for _, ten := range prog.Tensors {
			if ten.Name == "input" || (len(ten.Name) > 2 && ten.Name[len(ten.Name)-2:] == ".w") {
				for blk := uint64(0); blk < ten.Blocks(); blk++ {
					written[ten.Addr+blk*64] = 1
				}
			}
		}
		var aligned, boundary, unwritten int
		for i := range prog.Trace.Instrs {
			in := &prog.Trace.Instrs[i]
			for _, seg := range in.Segments {
				for addr := seg.Addr &^ 63; addr < seg.Addr+seg.Bytes; addr += 64 {
					switch in.Op {
					case isa.OpMvOut:
						written[addr] = in.Version
					case isa.OpMvIn:
						v, ok := written[addr]
						switch {
						case !ok:
							unwritten++
						case v == in.Version:
							aligned++
						default:
							boundary++
						}
					}
				}
			}
		}
		if unwritten > 0 {
			t.Fatalf("%d reads of never-written blocks", unwritten)
		}
		if aligned == 0 || boundary > aligned/4 {
			t.Fatalf("version discipline degenerate: aligned=%d boundary=%d", aligned, boundary)
		}
	})
}

// graphFromSpec deterministically derives a small valid layer graph from
// fuzz bytes. Returns nil for unusable specs.
func graphFromSpec(spec []byte) *model.Model {
	if len(spec) < 2 {
		return nil
	}
	m := &model.Model{Name: "fuzz", Short: "fz", InputBytes: 2 * (uint64(spec[0]) + 1) * 8}
	prev := -1
	layers := int(spec[1]%4) + 1
	for li := 0; li < layers; li++ {
		b := func(i int) int {
			if i < len(spec) {
				return int(spec[i])
			}
			return li*7 + i
		}
		base := 2 + li*3
		switch b(base) % 4 {
		case 0:
			m.Layers = append(m.Layers, model.FC("fc", b(base+1)%32+1, b(base+2)%64+1, b(base+1)%48+1, prev))
		case 1:
			h := b(base+1)%12 + 4
			c := b(base+2)%8 + 1
			m.Layers = append(m.Layers, model.Conv("conv", h, h, c, 3, 3, b(base+1)%16+1, 1, true, prev))
		case 2:
			m.Layers = append(m.Layers, model.Embedding("emb", b(base+1)%500+64, (b(base+2)%8+1)*16, b(base+1)%20+1, prev))
		case 3:
			elems := (b(base+1)%64 + 1) * 32
			m.Layers = append(m.Layers, model.Pool("pool", elems, elems/2+1, prev))
		}
		prev = li
	}
	if m.Validate() != nil {
		return nil
	}
	return m
}
