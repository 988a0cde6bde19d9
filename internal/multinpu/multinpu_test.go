package multinpu

import (
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/npu"
)

func compileFor(t *testing.T, short string, cfg npu.Config) *compiler.Program {
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

func TestSingleNPUMatchesNPURun(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	single, err := npu.Run(prog, memprot.Baseline, cfg)
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Run(prog, memprot.Baseline, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if single.Cycles != multi.Cycles {
		t.Errorf("1-NPU multinpu run (%d) differs from npu.Run (%d)", multi.Cycles, single.Cycles)
	}
	if single.Traffic.Total() != multi.Traffic.Total() {
		t.Errorf("traffic differs: %d vs %d", multi.Traffic.Total(), single.Traffic.Total())
	}
}

func TestMoreNPUsSlowerWallClock(t *testing.T) {
	// Shared bandwidth: n copies of the same work cannot finish faster
	// than one; with contention they finish slower per copy.
	cfg := npu.SmallNPU()
	prog := compileFor(t, "agz", cfg)
	var prev uint64
	for n := 1; n <= 3; n++ {
		r, err := Run(prog, memprot.Unsecure, cfg, n)
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles < prev {
			t.Errorf("%d NPUs finished before %d NPUs: %d < %d", n, n-1, r.Cycles, prev)
		}
		prev = r.Cycles
		if len(r.PerNPU) != n {
			t.Fatalf("PerNPU has %d entries, want %d", len(r.PerNPU), n)
		}
	}
}

func TestFairness(t *testing.T) {
	// Round-robin arbitration: identical workloads must finish within a
	// tight band of one another.
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	r, err := Run(prog, memprot.Unsecure, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := r.PerNPU[0], r.PerNPU[0]
	for _, c := range r.PerNPU {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if float64(hi-lo) > 0.02*float64(hi) {
		t.Errorf("unfair completion spread: %v", r.PerNPU)
	}
}

func TestTNPUAdvantageGrowsWithNPUs(t *testing.T) {
	// Fig. 16's claim: the baseline's counter/hash caches are shared, so
	// its normalized overhead grows faster with NPU count than TNPU's.
	cfg := npu.SmallNPU()
	prog := compileFor(t, "res", cfg)
	gap := func(n int) float64 {
		var cyc [3]uint64
		for i, s := range memprot.Schemes() {
			r, err := Run(prog, s, cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			cyc[i] = r.Cycles
		}
		return float64(cyc[1])/float64(cyc[0]) - float64(cyc[2])/float64(cyc[0])
	}
	g1, g3 := gap(1), gap(3)
	if g3 <= 0 || g1 <= 0 {
		t.Fatalf("tnpu not ahead: gap1=%.4f gap3=%.4f", g1, g3)
	}
	if g3 < g1*0.9 {
		t.Errorf("baseline-vs-tnpu gap should not shrink with more NPUs: 1->%.4f 3->%.4f", g1, g3)
	}
}

func TestSharedCounterCacheContention(t *testing.T) {
	// Baseline counter miss rate must rise when more NPUs share the 4KB
	// counter cache — the mechanism behind Fig. 16.
	cfg := npu.SmallNPU()
	prog := compileFor(t, "res", cfg)
	r1, err := Run(prog, memprot.Baseline, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Run(prog, memprot.Baseline, cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Counter.MissRate() <= r1.Counter.MissRate() {
		t.Errorf("counter miss rate did not rise with sharing: %.4f -> %.4f",
			r1.Counter.MissRate(), r3.Counter.MissRate())
	}
}

func TestErrors(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	if _, err := Run(prog, memprot.Unsecure, cfg, 0); err == nil {
		t.Error("zero count accepted")
	}
	bad := cfg
	bad.Mem.FreqHz = 0
	if _, err := Run(prog, memprot.Unsecure, bad, 1); err == nil {
		t.Error("bad config accepted")
	}
}

func TestDeterminism(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "agz", cfg)
	a, _ := Run(prog, memprot.TreeLess, cfg, 2)
	b, _ := Run(prog, memprot.TreeLess, cfg, 2)
	if a.Cycles != b.Cycles || a.Traffic.Total() != b.Traffic.Total() {
		t.Error("multi-NPU run not deterministic")
	}
}

func TestRunMixedWorkloads(t *testing.T) {
	cfg := npu.SmallNPU()
	pa := compileFor(t, "df", cfg)
	pb := compileFor(t, "agz", cfg)
	mixed, err := RunMixed([]*compiler.Program{pa, pb}, memprot.TreeLess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(mixed.PerNPU) != 2 {
		t.Fatalf("PerNPU = %v", mixed.PerNPU)
	}
	// Each workload slower than alone (shared bandwidth), faster than if
	// it had to run both sequentially.
	soloA, _ := Run(pa, memprot.TreeLess, cfg, 1)
	soloB, _ := Run(pb, memprot.TreeLess, cfg, 1)
	if mixed.PerNPU[0] < soloA.Cycles || mixed.PerNPU[1] < soloB.Cycles {
		t.Errorf("contended runs faster than solo: %v vs %d/%d", mixed.PerNPU, soloA.Cycles, soloB.Cycles)
	}
	if mixed.Cycles >= soloA.Cycles+soloB.Cycles {
		t.Errorf("no concurrency benefit: mixed %d vs serial %d", mixed.Cycles, soloA.Cycles+soloB.Cycles)
	}
}

func TestRunMixedErrors(t *testing.T) {
	cfg := npu.SmallNPU()
	if _, err := RunMixed(nil, memprot.Unsecure, cfg); err == nil {
		t.Error("empty program list accepted")
	}
}
