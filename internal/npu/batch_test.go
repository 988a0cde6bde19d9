package npu

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/stats"
	"tnpu/internal/tensor"
)

// pathState captures every observable of one simulation — timing, traffic,
// cache statistics, per-layer spans, and raw bus counters — so the batched
// and per-block paths can be compared for exact equality.
type pathState struct {
	Cycles, Compute, Blocks   uint64
	Spans                     []uint64
	Traffic                   stats.Traffic
	Counter, Hash, MAC        stats.CacheStats
	BusBytes, BusBusy, BusNow uint64
	TLBMisses                 uint64
}

func runPath(t testing.TB, prog *compiler.Program, scheme memprot.Scheme, cfg Config, mutate func(*memprot.Config), batched bool) pathState {
	t.Helper()
	bus := dram.NewBus(cfg.Mem)
	mpCfg := memprot.DefaultConfig(bus)
	if mutate != nil {
		mutate(&mpCfg)
	}
	eng, err := memprot.New(scheme, mpCfg)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, eng)
	if cfg.TLBEntries > 0 {
		m.EnableTranslation(cfg.TLBEntries, cfg.TLBWalkCycles)
	}
	m.SetBatched(batched)
	if m.Batched() != batched {
		t.Fatalf("scheme %v: requested batched=%v, machine reports %v", scheme, batched, m.Batched())
	}
	m.Run()
	eng.Flush(m.Cycles())
	return pathState{
		Cycles:    m.Cycles(),
		Compute:   m.ComputeBusy(),
		Blocks:    m.BlocksMoved(),
		Spans:     m.LayerSpans(),
		Traffic:   *eng.Traffic(),
		Counter:   *eng.CounterStats(),
		Hash:      *eng.HashStats(),
		MAC:       *eng.MACStats(),
		BusBytes:  bus.BytesMoved(),
		BusBusy:   bus.BusyCycles(),
		BusNow:    bus.Now(),
		TLBMisses: m.TLBMisses,
	}
}

// diffPaths fails the test when the two execution paths disagree on any
// observable.
func diffPaths(t *testing.T, prog *compiler.Program, scheme memprot.Scheme, cfg Config, mutate func(*memprot.Config)) {
	t.Helper()
	per := runPath(t, prog, scheme, cfg, mutate, false)
	bat := runPath(t, prog, scheme, cfg, mutate, true)
	if !reflect.DeepEqual(per, bat) {
		t.Errorf("batched path diverges from per-block reference:\n  per-block: %+v\n  batched:   %+v", per, bat)
	}
}

// equivalenceModels returns the workload set for the differential suite:
// every model normally, a pathology-covering subset under -short (dense
// conv, embedding gathers, LSTM).
func equivalenceModels(t *testing.T) []string {
	if testing.Short() {
		return []string{"res", "sent", "ds2"}
	}
	return model.ShortNames()
}

// TestBatchedEquivalence pins the tentpole guarantee: for every workload,
// NPU class, and protection scheme, the batched fast path is cycle- and
// stats-identical to the per-block reference.
func TestBatchedEquivalence(t *testing.T) {
	var mu sync.Mutex
	progs := map[string]*compiler.Program{}
	compile := func(t *testing.T, short string, cfg Config) *compiler.Program {
		mu.Lock()
		defer mu.Unlock()
		key := cfg.Name + "/" + short
		if p, ok := progs[key]; ok {
			return p
		}
		p := compileFor(t, short, cfg)
		progs[key] = p
		return p
	}
	for _, cfg := range []Config{SmallNPU(), LargeNPU()} {
		for _, short := range equivalenceModels(t) {
			for _, scheme := range memprot.AllSchemes() {
				cfg, short, scheme := cfg, short, scheme
				t.Run(fmt.Sprintf("%s/%s/%s", cfg.Name, short, scheme), func(t *testing.T) {
					t.Parallel()
					diffPaths(t, compile(t, short, cfg), scheme, cfg, nil)
				})
			}
		}
	}
}

// TestBatchedEquivalenceAblations covers the configurations the ablation
// benches sweep: multi-channel buses, non-default MAC slot sizes (including
// one that does not divide the 64B line), SGX-like tree arity, counter
// prefetch, a single-MSHR walker, an IOMMU, and a degenerate one-line
// counter cache (which must force the baseline's safe fallback).
func TestBatchedEquivalenceAblations(t *testing.T) {
	base := SmallNPU()
	prog := compileFor(t, "df", base)
	variants := []struct {
		name   string
		cfg    func() Config
		mutate func(*memprot.Config)
	}{
		{"channels4", func() Config { c := base; c.Mem.Channels = 4; return c }, nil},
		{"channels3", func() Config { c := base; c.Mem.Channels = 3; return c }, nil},
		{"macslot4", func() Config { return base }, func(c *memprot.Config) { c.MACSlotBytes = 4 }},
		{"macslot16", func() Config { return base }, func(c *memprot.Config) { c.MACSlotBytes = 16 }},
		{"macslot24-nondividing", func() Config { return base }, func(c *memprot.Config) { c.MACSlotBytes = 24 }},
		{"arity8", func() Config { return base }, func(c *memprot.Config) { c.TreeArity = 8 }},
		{"prefetch", func() Config { return base }, func(c *memprot.Config) { c.CounterPrefetch = true }},
		{"prefetch-1line-counter", func() Config { return base }, func(c *memprot.Config) {
			c.CounterPrefetch = true
			c.CounterCacheBytes = 64
		}},
		{"mshr1", func() Config { return base }, func(c *memprot.Config) { c.WalkMSHRs = 1 }},
		{"iommu", func() Config { c := base; c.TLBEntries = 16; c.TLBWalkCycles = 200; return c }, nil},
		{"zero-latency", func() Config { c := base; c.Mem.LatencyCycles = 0; return c }, nil},
	}
	for _, v := range variants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			cfg := v.cfg()
			p := prog
			if cfg.Mem.Channels != base.Mem.Channels { // program is config-independent for Mem changes
				p = prog
			}
			for _, scheme := range memprot.AllSchemes() {
				diffPaths(t, p, scheme, cfg, v.mutate)
			}
		})
	}
}

// TestBatchedDefault confirms the fast path is the default execution path
// for stock engines and that ForcePerBlock overrides it globally.
func TestBatchedDefault(t *testing.T) {
	cfg := SmallNPU()
	prog := compileFor(t, "df", cfg)
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(memprot.TreeLess, memprot.DefaultConfig(bus))
	if err != nil {
		t.Fatal(err)
	}
	if m := NewMachine(prog, eng); !m.Batched() {
		t.Error("batched path is not the default")
	}
	ForcePerBlock(true)
	m := NewMachine(prog, eng)
	ForcePerBlock(false)
	if m.Batched() {
		t.Error("ForcePerBlock(true) did not select the per-block path")
	}
}

// fuzzByte reads configuration bytes off the fuzz input, defaulting to 0
// once exhausted.
type fuzzReader struct {
	data []byte
	pos  int
}

func (f *fuzzReader) byte() byte {
	if f.pos >= len(f.data) {
		return 0
	}
	b := f.data[f.pos]
	f.pos++
	return b
}

func (f *fuzzReader) u16() uint64 { return uint64(f.byte())<<8 | uint64(f.byte()) }

// buildFuzzProgram derives a small but structurally rich synthetic program
// from fuzz bytes: mixed mvin/mvout/compute instructions, 1–4 segments
// each with unaligned addresses and sizes, versions, backward deps, and
// boundary-hunting ops — a counter-hammer that rewrites one range until a
// minor counter wraps, a near-wrap op that stops exactly at/before/after
// the 7-bit edge, capacity-edge working sets that fill a metadata cache to
// the line, and dirty-fill ops that leave victims pending for later
// instructions. The trace is split into 1–4 contiguous layers so edge
// state crosses memoized layer boundaries.
func buildFuzzProgram(f *fuzzReader) *compiler.Program {
	var tr isa.Trace
	nInstr := 2 + int(f.byte()%10)
	for i := 0; i < nInstr; i++ {
		var in isa.Instr
		switch f.byte() % 11 {
		case 0, 1:
			in.Op = isa.OpMvIn
		case 2:
			in.Op = isa.OpMvOut
		case 3:
			in.Op = isa.OpCompute
			in.Cycles = 1 + f.u16()
		case 4:
			// Near-overflow: rewrite one aligned range 126/127/128 times, so
			// a minor counter ends the instruction one short of, exactly at,
			// or one past the 7-bit wrap — the analytic precondition's edge.
			in.Op = isa.OpMvOut
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			span := isa.Segment{Addr: f.u16() * 64, Bytes: (1 + f.u16()%64) * dram.BlockBytes}
			rep := 126 + int(f.byte()%3)
			for j := 0; j < rep; j++ {
				in.Segments = append(in.Segments, span)
			}
		case 5:
			// Capacity edge: one read whose metadata working set lands
			// exactly at, one line under, or one line over a metadata-cache
			// capacity (MAC cache: 8KB/8B slots = 1024 blocks; counter
			// cache: 4KB at arity 64 = 4096 blocks — both scaled by the
			// fuzzed slot/arity/capacity draws, so the exact edge moves).
			in.Op = isa.OpMvIn
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			blocks := []uint64{1024, 1016, 1032, 4096, 4088, 4104}[f.byte()%6]
			in.Segments = append(in.Segments, isa.Segment{Addr: f.u16() * 64, Bytes: blocks * dram.BlockBytes})
		case 6:
			// Dirty fill: write a cache-sized span so every metadata line
			// sits dirty, leaving victim writebacks pending for whatever the
			// following instructions (often in the next layer) touch.
			in.Op = isa.OpMvOut
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			blocks := []uint64{1024, 4096}[f.byte()%2]
			in.Segments = append(in.Segments, isa.Segment{Addr: f.u16() * 64, Bytes: blocks * dram.BlockBytes})
		default:
			// Hammer: one mvout whose segments rewrite the same 48-block
			// range far past the 7-bit minor-counter limit. The lone
			// half-range head-start segment puts the tail blocks one bump
			// ahead, so the first wrap lands mid-run (block 24 of 48), not
			// on a run boundary — exercising the streak's overflowPending
			// guard and the re-encryption burst inside a per-line chunk.
			in.Op = isa.OpMvOut
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			const half = 24 * dram.BlockBytes
			base := f.u16() * 64
			in.Segments = append(in.Segments, isa.Segment{Addr: base + half, Bytes: half})
			rep := 130 + int(f.byte()%40) // always past the 128-write wrap
			for j := 0; j < rep; j++ {
				in.Segments = append(in.Segments, isa.Segment{Addr: base, Bytes: 2 * half})
			}
		}
		if in.IsDMA() && len(in.Segments) == 0 {
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			nSeg := 1 + int(f.byte()%4)
			for s := 0; s < nSeg; s++ {
				in.Segments = append(in.Segments, isa.Segment{
					Addr:  f.u16() * 37, // unaligned, spread over ~2.4MB
					Bytes: 1 + f.u16()%8192,
				})
			}
		}
		if i > 0 && f.byte()%2 == 0 {
			in.Deps = append(in.Deps, int32(int(f.byte())%i))
		}
		tr.Append(in)
	}
	if err := tr.Validate(); err != nil {
		panic(err) // construction above must always be valid
	}
	// Tile the trace into 1–4 contiguous layers so dirty lines, pending
	// victims, and near-wrap counters carry across memoized boundaries.
	n := len(tr.Instrs)
	nLayers := 1 + int(f.byte())%4
	if nLayers > n {
		nLayers = n
	}
	prog := &compiler.Program{Trace: tr}
	first := 0
	for li := 0; li < nLayers; li++ {
		last := first + (n-first)/(nLayers-li) - 1
		prog.LayerFirst = append(prog.LayerFirst, int32(first))
		prog.LayerLast = append(prog.LayerLast, int32(last))
		first = last + 1
	}
	return prog
}

// FuzzBatchedVsPerBlock drives random traces, memory geometries, and
// protection parameters through both execution paths and requires exact
// agreement on every observable.
func FuzzBatchedVsPerBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{7, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add([]byte{0xff, 0x80, 0x41, 0x00, 0x13, 0x37, 0xca, 0xfe, 0x00, 0x01, 0x02, 0x03})
	f.Add([]byte{3, 3, 3, 3, 200, 200, 200, 200, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		fr := &fuzzReader{data: data}
		mem := dram.Config{
			FreqHz:               []uint64{1_000_000_000, 2_750_000_000, 3_000_000_000}[fr.byte()%3],
			BandwidthBytesPerSec: []uint64{7_000_000_000, 11_000_000_000, 22_000_000_000}[fr.byte()%3],
			LatencyCycles:        []uint64{0, 10, 100}[fr.byte()%3],
			Channels:             int(fr.byte()%4) + 1,
		}
		scheme := memprot.AllSchemes()[fr.byte()%4]
		// Draw the protection knobs once: mutate runs twice (once per path)
		// and must apply the identical configuration both times.
		slot := []uint64{4, 8, 16, 24, 64}[fr.byte()%5]
		arity := []uint64{8, 64}[fr.byte()%2]
		mshrs := 1 + int(fr.byte()%2)
		prefetch := fr.byte()%2 == 0
		ctrBytes := []int{64, 256, 4 << 10}[fr.byte()%3]
		mutate := func(c *memprot.Config) {
			c.MACSlotBytes = slot
			c.TreeArity = arity
			c.WalkMSHRs = mshrs
			c.CounterPrefetch = prefetch
			c.CounterCacheBytes = ctrBytes
		}
		prog := buildFuzzProgram(fr)
		cfg := SmallNPU()
		cfg.Mem = mem
		per := runPath(t, prog, scheme, cfg, mutate, false)
		bat := runPath(t, prog, scheme, cfg, mutate, true)
		if !reflect.DeepEqual(per, bat) {
			t.Fatalf("divergence (scheme %v, mem %+v):\n  per-block: %+v\n  batched:   %+v", scheme, mem, per, bat)
		}
		// Memoized legs: the recording pass and a replay from the warm memo
		// must also agree with the per-block reference exactly.
		memo := NewLayerMemo()
		rec := runMemoPath(t, prog, scheme, cfg, mutate, memo)
		if !reflect.DeepEqual(per, rec) {
			t.Fatalf("memo recording divergence (scheme %v, mem %+v):\n  per-block: %+v\n  recording: %+v", scheme, mem, per, rec)
		}
		rep := runMemoPath(t, prog, scheme, cfg, mutate, memo)
		if !reflect.DeepEqual(per, rep) {
			t.Fatalf("memo replay divergence (scheme %v, mem %+v):\n  per-block: %+v\n  replay:    %+v", scheme, mem, per, rep)
		}
	})
}

// BenchmarkMachineRun measures a full dense-workload simulation per scheme
// on three paths: the per-block reference, the streak path (batched, no
// memo), and the production path (batched + layer memo, which replays the
// whole run from cache after the first iteration — the harness's steady
// state). BENCH_PR6.json records the batched/per-block ratio.
func BenchmarkMachineRun(b *testing.B) {
	for _, cfg := range []Config{SmallNPU(), LargeNPU()} {
		m, err := model.ByShort("res")
		if err != nil {
			b.Fatal(err)
		}
		prog, err := compiler.Compile(m, cfg.CompilerConfig())
		if err != nil {
			b.Fatal(err)
		}
		for _, scheme := range memprot.AllSchemes() {
			for _, path := range []string{"perblock", "streak", "batched"} {
				path := path
				b.Run(fmt.Sprintf("%s/res/%s/%s", cfg.Name, scheme, path), func(b *testing.B) {
					var memo *LayerMemo
					if path == "batched" {
						memo = NewLayerMemo()
					}
					for i := 0; i < b.N; i++ {
						bus := dram.NewBus(cfg.Mem)
						eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
						if err != nil {
							b.Fatal(err)
						}
						mach := NewMachine(prog, eng)
						switch path {
						case "perblock":
							mach.SetBatched(false)
							mach.Run()
						case "streak":
							mach.Run()
						case "batched":
							mach.RunMemoized(memo)
						}
						eng.Flush(mach.Cycles())
					}
				})
			}
		}
	}
}
