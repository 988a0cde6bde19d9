package npu

import (
	"bytes"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/stats"
)

func newBus(cfg Config) *dram.Bus { return dram.NewBus(cfg.Mem) }

func compileFor(t *testing.T, short string, cfg Config) *compiler.Program {
	t.Helper()
	m, err := model.ByShort(short)
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiler.Compile(m, cfg.CompilerConfig())
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigs(t *testing.T) {
	for _, cfg := range []Config{SmallNPU(), LargeNPU()} {
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: %v", cfg.Name, err)
		}
	}
	if SmallNPU().Array.PEs() != 1024 || LargeNPU().Array.PEs() != 2025 {
		t.Error("PE counts do not match Table II")
	}
	bad := SmallNPU()
	bad.SPM.CapacityBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestRunDeterministic(t *testing.T) {
	cfg := SmallNPU()
	prog := compileFor(t, "df", cfg)
	r1, err := Run(prog, memprot.Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(prog, memprot.Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles || r1.Traffic.Total() != r2.Traffic.Total() {
		t.Fatalf("non-deterministic: %v vs %v", r1.Cycles, r2.Cycles)
	}
}

func TestSchemeOrdering(t *testing.T) {
	// The paper's headline (Fig. 14): unsecure < tnpu < baseline in
	// execution time, for every model on both NPUs.
	for _, cfg := range []Config{SmallNPU(), LargeNPU()} {
		for _, short := range []string{"goo", "res", "sent", "tf", "ncf"} {
			prog := compileFor(t, short, cfg)
			var cycles [3]uint64
			for i, s := range memprot.Schemes() {
				r, err := Run(prog, s, cfg)
				if err != nil {
					t.Fatal(err)
				}
				cycles[i] = r.Cycles
			}
			if !(cycles[0] < cycles[2] && cycles[2] < cycles[1]) {
				t.Errorf("%s/%s: ordering violated: unsecure=%d baseline=%d tnpu=%d",
					cfg.Name, short, cycles[0], cycles[1], cycles[2])
			}
		}
	}
}

func TestTrafficOrdering(t *testing.T) {
	// Fig. 15: tnpu moves less metadata than baseline, more than unsecure.
	cfg := SmallNPU()
	prog := compileFor(t, "res", cfg)
	var traffic [3]uint64
	for i, s := range memprot.Schemes() {
		r, err := Run(prog, s, cfg)
		if err != nil {
			t.Fatal(err)
		}
		traffic[i] = r.Traffic.Total()
	}
	if !(traffic[0] < traffic[2] && traffic[2] < traffic[1]) {
		t.Errorf("traffic ordering violated: %v", traffic)
	}
}

func TestComputeInvariantAcrossSchemes(t *testing.T) {
	// Protection changes memory behaviour, never the computation.
	cfg := SmallNPU()
	prog := compileFor(t, "alex", cfg)
	var compute [3]uint64
	for i, s := range memprot.Schemes() {
		r, _ := Run(prog, s, cfg)
		compute[i] = r.Compute
	}
	if compute[0] != compute[1] || compute[1] != compute[2] {
		t.Errorf("compute cycles differ across schemes: %v", compute)
	}
}

func TestEmbeddingModelsHaveHighCounterMissRates(t *testing.T) {
	// Fig. 5's key contrast: sent/tf counter-cache miss rates stand out
	// against the dense CNNs.
	cfg := SmallNPU()
	missOf := func(short string) float64 {
		r, err := Run(compileFor(t, short, cfg), memprot.Baseline, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Counter.MissRate()
	}
	goo, sent, tf := missOf("goo"), missOf("sent"), missOf("tf")
	if sent < 2*goo || tf < 1.5*goo {
		t.Errorf("embedding workloads not miss-dominated: goo=%.3f sent=%.3f tf=%.3f", goo, sent, tf)
	}
}

func TestBaselineSlowdownInPaperRange(t *testing.T) {
	// Geometric-mean overheads must land in the paper's regime:
	// baseline ~21%, TNPU ~9% (Small NPU), with generous tolerance for
	// our reconstructed workloads.
	cfg := SmallNPU()
	var base, tnpu []float64
	for _, m := range model.All() {
		prog, err := compiler.Compile(m, cfg.CompilerConfig())
		if err != nil {
			t.Fatal(err)
		}
		var cyc [3]uint64
		for i, s := range memprot.Schemes() {
			r, _ := Run(prog, s, cfg)
			cyc[i] = r.Cycles
		}
		base = append(base, float64(cyc[1])/float64(cyc[0]))
		tnpu = append(tnpu, float64(cyc[2])/float64(cyc[0]))
	}
	bAvg, tAvg := stats.Mean(base), stats.Mean(tnpu)
	if bAvg < 1.10 || bAvg > 1.40 {
		t.Errorf("baseline mean overhead %.3f outside the paper regime (~1.21)", bAvg)
	}
	if tAvg < 1.03 || tAvg > 1.20 {
		t.Errorf("tnpu mean overhead %.3f outside the paper regime (~1.09)", tAvg)
	}
	if tAvg >= bAvg {
		t.Error("tnpu does not beat baseline on average")
	}
}

func TestMachineStepInterface(t *testing.T) {
	cfg := SmallNPU()
	prog := compileFor(t, "df", cfg)
	eng, err := memprot.New(memprot.Unsecure, memprot.DefaultConfig(newBus(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, eng)
	steps := 0
	var lastReady uint64
	for {
		ready, ok := m.NextReady()
		if !ok {
			break
		}
		if ready < lastReady {
			// Ready times within one machine may only move forward.
			t.Fatalf("ready time went backwards: %d -> %d", lastReady, ready)
		}
		lastReady = ready
		m.ServeBlock()
		steps++
	}
	if steps == 0 || uint64(steps) != m.BlocksMoved() {
		t.Fatalf("steps %d vs blocks %d", steps, m.BlocksMoved())
	}
	if m.Cycles() == 0 {
		t.Fatal("no cycles recorded")
	}
}

func TestVersionFetchesHappen(t *testing.T) {
	cfg := SmallNPU()
	prog := compileFor(t, "df", cfg)
	r, err := Run(prog, memprot.TreeLess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Traffic.Class(stats.Version) == 0 {
		t.Error("tree-less run recorded no version-table traffic")
	}
	if r.VersionTablePeakBytes == 0 {
		t.Error("no version-table storage recorded")
	}
}

func TestLargeNPUFasterThanSmall(t *testing.T) {
	small, large := SmallNPU(), LargeNPU()
	ps := compileFor(t, "res", small)
	pl := compileFor(t, "res", large)
	rs, _ := Run(ps, memprot.Unsecure, small)
	rl, _ := Run(pl, memprot.Unsecure, large)
	// Large NPU has 2x PEs and 2x bandwidth but runs at 1GHz vs 2.75GHz;
	// in wall-clock terms it must not be slower per cycle-time-adjusted
	// unit. Compare transferred blocks instead: both move similar data.
	if rl.Cycles == 0 || rs.Cycles == 0 {
		t.Fatal("empty runs")
	}
	wallSmall := float64(rs.Cycles) / 2.75e9
	wallLarge := float64(rl.Cycles) / 1e9
	if wallLarge > 2*wallSmall {
		t.Errorf("large NPU implausibly slow: %.3fms vs %.3fms", wallLarge*1e3, wallSmall*1e3)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	prog := compileFor(t, "df", SmallNPU())
	bad := SmallNPU()
	bad.Mem.FreqHz = 0
	if _, err := Run(prog, memprot.Unsecure, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestBlocksMatchTraffic(t *testing.T) {
	cfg := SmallNPU()
	prog := compileFor(t, "agz", cfg)
	eng, err := memprot.New(memprot.Unsecure, memprot.DefaultConfig(newBus(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, eng)
	m.Run()
	if got := eng.Traffic().Class(stats.Data); got != m.BlocksMoved()*64 {
		t.Errorf("data traffic %d != blocks*64 %d", got, m.BlocksMoved()*64)
	}
}

func TestUtilizationAndLayerSpans(t *testing.T) {
	cfg := SmallNPU()
	prog := compileFor(t, "df", cfg)
	eng, err := memprot.New(memprot.Unsecure, memprot.DefaultConfig(newBus(cfg)))
	if err != nil {
		t.Fatal(err)
	}
	m := NewMachine(prog, eng)
	m.Run()
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization out of range: %v", u)
	}
	spans := m.LayerSpans()
	if len(spans) == 0 {
		t.Fatal("no layer spans")
	}
	// Layer completion times are monotone (layers depend on producers).
	var prev uint64
	for li, end := range spans {
		if end < prev {
			t.Fatalf("layer %d completed at %d before layer %d at %d", li, end, li-1, prev)
		}
		prev = end
	}
	if spans[len(spans)-1] != m.Cycles() {
		t.Fatalf("last layer span %d != machine cycles %d", spans[len(spans)-1], m.Cycles())
	}
}

func TestProtectionLowersUtilization(t *testing.T) {
	// Same compute over longer wall clock: utilization must drop under
	// the baseline protection relative to unsecure.
	cfg := SmallNPU()
	prog := compileFor(t, "res", cfg)
	u, _ := Run(prog, memprot.Unsecure, cfg)
	b, _ := Run(prog, memprot.Baseline, cfg)
	if b.Utilization >= u.Utilization {
		t.Errorf("baseline utilization %.4f not below unsecure %.4f", b.Utilization, u.Utilization)
	}
}

func TestLoadedProgramRunsIdentically(t *testing.T) {
	// A serialized program replays to the exact same cycle count as the
	// freshly compiled one.
	cfg := SmallNPU()
	orig := compileFor(t, "df", cfg)
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := compiler.ReadProgram(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Run(orig, memprot.Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(loaded, memprot.Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Traffic.Total() != b.Traffic.Total() {
		t.Fatalf("loaded program diverges: %d/%d vs %d/%d",
			a.Cycles, a.Traffic.Total(), b.Cycles, b.Traffic.Total())
	}
}

func TestIOMMUTranslation(t *testing.T) {
	cfg := SmallNPU()
	prog := compileFor(t, "df", cfg)
	// run simulates df under unsecure with a TLB of the given size (0: no
	// translation) and 300-cycle walks.
	run := func(entries int) (cycles, misses uint64) {
		eng, err := memprot.New(memprot.Unsecure, memprot.DefaultConfig(newBus(cfg)))
		if err != nil {
			t.Fatal(err)
		}
		m := NewMachine(prog, eng)
		if entries > 0 {
			m.EnableTranslation(entries, 300)
		}
		m.Run()
		return m.Cycles(), m.TLBMisses
	}
	plain, _ := run(0)
	walked, misses := run(32)
	if walked <= plain {
		t.Errorf("translation added no cost: %d vs %d", walked, plain)
	}
	if misses == 0 {
		t.Error("no TLB misses recorded")
	}
	// A huge TLB reduces the cost back toward the untranslated run: only
	// compulsory misses remain.
	if big, _ := run(4096); big > walked {
		t.Errorf("larger TLB slower: %d vs %d", big, walked)
	}
}
