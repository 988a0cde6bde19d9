package compiler

import (
	"fmt"
	"testing"

	"tnpu/internal/isa"
	"tnpu/internal/model"
	"tnpu/internal/spm"
	"tnpu/internal/systolic"
)

// smallCfg is the paper's Small NPU (Exynos 990-class).
func smallCfg() Config {
	return Config{Array: systolic.Array{Rows: 32, Cols: 32}, SPM: spm.SPM{CapacityBytes: 480 << 10}}
}

// largeCfg is the Large NPU (Ethos-N77-class).
func largeCfg() Config {
	return Config{Array: systolic.Array{Rows: 45, Cols: 45}, SPM: spm.SPM{CapacityBytes: 1 << 20}}
}

func compileShort(t *testing.T, short string, cfg Config) *Program {
	t.Helper()
	m, err := model.ByShort(short)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Compile(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCompileAllModelsBothConfigs(t *testing.T) {
	for _, cfg := range []Config{smallCfg(), largeCfg()} {
		for _, m := range model.All() {
			p, err := Compile(m, cfg)
			if err != nil {
				t.Errorf("%s: %v", m.Short, err)
				continue
			}
			if err := p.Trace.Validate(); err != nil {
				t.Errorf("%s: invalid trace: %v", m.Short, err)
			}
			s := p.Trace.Summarize()
			if s.MvIns == 0 || s.MvOuts == 0 {
				t.Errorf("%s: empty trace summary %+v", m.Short, s)
			}
			if s.Layers != len(m.Layers) {
				t.Errorf("%s: trace covers %d layers, want %d", m.Short, s.Layers, len(m.Layers))
			}
			// Output traffic must cover every layer's ofmap exactly once.
			var ofmap uint64
			for i := range m.Layers {
				ofmap += m.Layers[i].OfmapBytes
			}
			if s.BytesOut < ofmap-ofmap/50 || s.BytesOut > ofmap+ofmap/8 {
				t.Errorf("%s: mvout bytes %d vs total ofmap %d", m.Short, s.BytesOut, ofmap)
			}
			// Input traffic at least reads each GEMM weight once (plus
			// reuse); embedding tables are only sampled by gathers.
			var gemmWeights uint64
			for i := range m.Layers {
				if m.Layers[i].Kind == model.KindGEMM {
					gemmWeights += m.Layers[i].WeightBytes
				}
			}
			if s.BytesIn < gemmWeights {
				t.Errorf("%s: mvin bytes %d below GEMM weights %d", m.Short, s.BytesIn, gemmWeights)
			}
		}
	}
}

// namedConfig is a compiler view with a label for failure messages.
type namedConfig struct {
	name string
	cfg  Config
}

// exactSizeConfigs lists every compiler view the harness compiles for:
// both classes, each alone and with the weight-layout and versioning
// ablations, and the scratchpad sweep's capacities.
func exactSizeConfigs() []namedConfig {
	var out []namedConfig
	for _, base := range []namedConfig{{"small", smallCfg()}, {"large", largeCfg()}} {
		pretiled, perTensor := base.cfg, base.cfg
		pretiled.PretiledWeights = true
		perTensor.PerTensorVersions = true
		out = append(out, base,
			namedConfig{base.name + "/pretiled", pretiled},
			namedConfig{base.name + "/per-tensor", perTensor})
	}
	for _, kb := range []uint64{128, 256, 480, 1024, 2048} {
		cfg := smallCfg()
		cfg.SPM.CapacityBytes = kb << 10
		out = append(out, namedConfig{fmt.Sprintf("small/spm=%dKB", kb), cfg})
	}
	return out
}

// requireExactSize fails unless the trace and every instruction's
// Segments and Deps are exactly as long as their capacity. A plan that
// drifts from emission leaves the trace with slack or regrown, and a list
// with spare capacity would let a later append write into the next
// list's arena slots.
func requireExactSize(t *testing.T, name string, p *Program) {
	t.Helper()
	instrs := p.Trace.Instrs
	if len(instrs) != cap(instrs) {
		t.Fatalf("%s: trace holds %d instructions in a capacity of %d", name, len(instrs), cap(instrs))
	}
	for i := range instrs {
		in := &instrs[i]
		if len(in.Segments) != cap(in.Segments) || len(in.Deps) != cap(in.Deps) {
			t.Fatalf("%s: instr %d has %d/%d segments and %d/%d deps (len/cap)",
				name, i, len(in.Segments), cap(in.Segments), len(in.Deps), cap(in.Deps))
		}
	}
}

// TestCompileExactSize pins the plan against emission on every zoo model
// under every compiler view.
func TestCompileExactSize(t *testing.T) {
	for _, c := range exactSizeConfigs() {
		for _, m := range model.All() {
			p, err := Compile(m, c.cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Short, c.name, err)
			}
			requireExactSize(t, m.Short+"/"+c.name, p)
		}
	}
}

// compiled keeps BenchmarkCompile's result live.
var compiled *Program

// BenchmarkCompile compiles every zoo model for both NPU classes per op.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cfg := range []Config{smallCfg(), largeCfg()} {
			for _, m := range model.All() {
				p, err := Compile(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				compiled = p
			}
		}
	}
}

func TestTraceDeterminism(t *testing.T) {
	a := compileShort(t, "sent", smallCfg())
	b := compileShort(t, "sent", smallCfg())
	if len(a.Trace.Instrs) != len(b.Trace.Instrs) {
		t.Fatal("non-deterministic instruction count")
	}
	for i := range a.Trace.Instrs {
		x, y := &a.Trace.Instrs[i], &b.Trace.Instrs[i]
		if x.Op != y.Op || x.Version != y.Version || x.TotalBytes() != y.TotalBytes() ||
			len(x.Segments) != len(y.Segments) ||
			(len(x.Segments) > 0 && x.Segments[0] != y.Segments[0]) {
			t.Fatalf("instr %d differs: %v vs %v", i, x, y)
		}
	}
}

func TestVersionsMergeAfterEachLayer(t *testing.T) {
	p := compileShort(t, "alex", smallCfg())
	// After compilation every surviving tensor must be merged (version
	// table back in tensor-unit state) — the Fig. 9 end state.
	for _, ten := range p.Tensors {
		if p.Table.Registered(ten.ID) && p.Table.Expanded(ten.ID) {
			t.Errorf("tensor %s left tile-expanded", ten.Name)
		}
	}
}

func TestWeightsVersionOne(t *testing.T) {
	p := compileShort(t, "alex", smallCfg())
	for i := range p.Trace.Instrs {
		in := &p.Trace.Instrs[i]
		if in.Op != isa.OpMvIn {
			continue
		}
		name := p.Tensors[in.Tensor].Name
		if len(name) > 2 && name[len(name)-2:] == ".w" && in.Version != 1 {
			t.Errorf("weight mvin of %s has version %d, want 1 (written once at init)", name, in.Version)
		}
	}
}

func TestActivationVersionsAreFresh(t *testing.T) {
	// Every mvin of an activation must carry the version its producer's
	// mvouts assigned — replay protection depends on this equality.
	p := compileShort(t, "res", smallCfg())
	lastWritten := map[uint32]uint64{}
	for i := range p.Trace.Instrs {
		in := &p.Trace.Instrs[i]
		switch in.Op {
		case isa.OpMvOut:
			lastWritten[uint32(in.Tensor)] = in.Version
		case isa.OpMvIn:
			if want, ok := lastWritten[uint32(in.Tensor)]; ok && in.Version != want {
				t.Fatalf("instr %d reads tensor %d at version %d, last written %d", i, in.Tensor, in.Version, want)
			}
		}
	}
}

func TestGatherIsFineGrained(t *testing.T) {
	p := compileShort(t, "sent", smallCfg())
	emb, ok := p.TensorByName("embed.w")
	if !ok {
		t.Fatal("embedding table tensor missing")
	}
	var rows int
	addrs := map[uint64]bool{}
	for i := range p.Trace.Instrs {
		in := &p.Trace.Instrs[i]
		if in.Op == isa.OpMvIn && in.Tensor == emb.ID {
			rows++
			if in.TotalBytes() != 256 {
				t.Fatalf("gather row of %d bytes, want 256", in.TotalBytes())
			}
			addrs[in.Segments[0].Addr] = true
		}
	}
	if rows != 12288 {
		t.Errorf("gather rows = %d, want 12288", rows)
	}
	// The rows must be scattered, not a handful of hot lines.
	if len(addrs) < 2800 {
		t.Errorf("only %d distinct row addresses; gathers not scattered", len(addrs))
	}
}

func TestPerTensorVersionAblation(t *testing.T) {
	cfg := smallCfg()
	cfg.PerTensorVersions = true
	p := compileShort(t, "alex", cfg)
	for i := range p.Trace.Instrs {
		if in := &p.Trace.Instrs[i]; in.Op == isa.OpMvOut && in.Tile != 0 {
			t.Fatalf("per-tensor mode emitted tile %d", in.Tile)
		}
	}
	if p.Table.PeakStorageBytes() > compileShort(t, "alex", smallCfg()).Table.PeakStorageBytes() {
		t.Error("per-tensor mode must not use more version storage than per-tile")
	}
	// On a tile-heavy model the difference is strict.
	cfgPT := smallCfg()
	cfgPT.PerTensorVersions = true
	if compileShort(t, "res", cfgPT).Table.PeakStorageBytes() >= compileShort(t, "res", smallCfg()).Table.PeakStorageBytes() {
		t.Error("per-tile expansion should dominate peak storage on res")
	}
}

func TestVersionTableStorageScale(t *testing.T) {
	// Sec. IV-D: version storage is KB-scale — ~1.3KB on average, 7.5KB
	// max (tf). Our reconstruction must stay in the same regime.
	var peaks []int
	for _, m := range model.All() {
		p, err := Compile(m, smallCfg())
		if err != nil {
			t.Fatal(err)
		}
		peaks = append(peaks, p.Table.PeakStorageBytes())
		if p.Table.PeakStorageBytes() > 64<<10 {
			t.Errorf("%s: version table peak %dB is not KB-scale", m.Short, p.Table.PeakStorageBytes())
		}
	}
	sum := 0
	for _, p := range peaks {
		sum += p
	}
	if avg := sum / len(peaks); avg > 16<<10 {
		t.Errorf("average version-table peak %dB far above the paper's ~1.3KB", avg)
	}
}

func TestTilingFitsSPM(t *testing.T) {
	st := &compileState{cfg: smallCfg()}
	cases := []struct{ m, k, n int }{
		{3136, 4608, 512}, {1, 9216, 192}, {401408, 9, 1}, {256, 1377, 3456}, {64, 128, 256},
	}
	for _, c := range cases {
		tl, err := st.chooseTiling(c.m, c.k, c.n)
		if err != nil {
			t.Errorf("chooseTiling(%v): %v", c, err)
			continue
		}
		if !st.fits(tl.Tm, tl.Tk, tl.Tn) {
			t.Errorf("chooseTiling(%v) = %+v does not fit", c, tl)
		}
		if tl.Tm > c.m || tl.Tk > c.k || tl.Tn > c.n {
			t.Errorf("chooseTiling(%v) = %+v exceeds dims", c, tl)
		}
	}
}

func TestLargerSPMBiggerTiles(t *testing.T) {
	small := &compileState{cfg: smallCfg()}
	large := &compileState{cfg: largeCfg()}
	ts, _ := small.chooseTiling(3136, 4608, 512)
	tl, _ := large.chooseTiling(3136, 4608, 512)
	if uint64(tl.Tm)*uint64(tl.Tn) < uint64(ts.Tm)*uint64(ts.Tn) {
		t.Errorf("large SPM chose smaller tiles: %+v vs %+v", tl, ts)
	}
}

func TestLayerRanges(t *testing.T) {
	p := compileShort(t, "df", smallCfg())
	m, _ := model.ByShort("df")
	if len(p.LayerFirst) != len(m.Layers) || len(p.LayerLast) != len(m.Layers) {
		t.Fatal("layer ranges incomplete")
	}
	for li := range m.Layers {
		if p.LayerFirst[li] > p.LayerLast[li] {
			t.Errorf("layer %d empty range", li)
		}
		for idx := p.LayerFirst[li]; idx <= p.LayerLast[li]; idx++ {
			if p.Trace.Instrs[idx].Layer != li {
				t.Errorf("instr %d tagged layer %d inside range of %d", idx, p.Trace.Instrs[idx].Layer, li)
			}
		}
	}
}

func TestBadConfigRejected(t *testing.T) {
	m, _ := model.ByShort("df")
	if _, err := Compile(m, Config{}); err == nil {
		t.Error("zero config accepted")
	}
	tiny := Config{Array: systolic.Array{Rows: 64, Cols: 64}, SPM: spm.SPM{CapacityBytes: 1024}}
	if _, err := Compile(m, tiny); err == nil {
		t.Error("SPM smaller than one array tile accepted")
	}
}

func TestMemoryLayoutDisjoint(t *testing.T) {
	p := compileShort(t, "goo", smallCfg())
	for i, a := range p.Tensors {
		for _, b := range p.Tensors[i+1:] {
			if a.Addr < b.End() && b.Addr < a.End() {
				t.Fatalf("tensors %s and %s overlap", a.Name, b.Name)
			}
		}
		if a.End() > p.MemoryTop {
			t.Fatalf("tensor %s beyond MemoryTop", a.Name)
		}
	}
}

func TestSegmentsWithinTensors(t *testing.T) {
	for _, short := range []string{"res", "sent", "tf", "mob"} {
		p := compileShort(t, short, smallCfg())
		for i := range p.Trace.Instrs {
			in := &p.Trace.Instrs[i]
			if !in.IsDMA() {
				continue
			}
			ten := p.Tensors[in.Tensor]
			for _, seg := range in.Segments {
				if seg.Addr < ten.Addr || seg.Addr+seg.Bytes > ten.End() {
					t.Fatalf("%s instr %d segment [%#x,%#x) outside tensor %s [%#x,%#x)",
						short, i, seg.Addr, seg.Addr+seg.Bytes, ten.Name, ten.Addr, ten.End())
				}
			}
		}
	}
}
