package tnpu

// One benchmark per table and figure of the paper's evaluation (see
// DESIGN.md's experiment index), plus ablations over the design choices
// the architecture fixes: metadata cache capacities, tree arity, MAC size,
// version granularity, and weight layout. The first iteration of each
// figure benchmark prints the regenerated rows; subsequent iterations hit
// the runner cache, so the reported ns/op measures the harness, while the
// printed tables and ReportMetric values carry the reproduction results.

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/npu"
	"tnpu/internal/stats"
	"tnpu/internal/systolic"
)

var (
	benchOnce   sync.Once
	benchRunner *exp.Runner
	printedOnce sync.Map
)

func runner() *exp.Runner {
	benchOnce.Do(func() { benchRunner = exp.NewRunner() })
	return benchRunner
}

// printOnce emits a regenerated table exactly once per benchmark name.
func printOnce(name, text string) {
	if _, loaded := printedOnce.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n%s\n", text)
	}
}

func benchFigure(b *testing.B, name string, gen func() (exp.Figure, error)) exp.Figure {
	b.Helper()
	var fig exp.Figure
	for i := 0; i < b.N; i++ {
		f, err := gen()
		if err != nil {
			b.Fatal(err)
		}
		fig = f
	}
	printOnce(name, fig.String())
	return fig
}

func BenchmarkTable3Footprints(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		out = runner().Table3()
	}
	printOnce("table3", out)
}

func BenchmarkFigure4(b *testing.B) {
	fig := benchFigure(b, "fig4", runner().Figure4)
	// Paper: baseline overhead 21.1% (Small) / 17.3% (Large).
	b.ReportMetric(fig.Series[0].Mean(), "small-baseline-norm")
	b.ReportMetric(fig.Series[1].Mean(), "large-baseline-norm")
}

func BenchmarkFigure5(b *testing.B) {
	fig := benchFigure(b, "fig5", runner().Figure5)
	b.ReportMetric(fig.Series[0].Mean(), "small-ctr-missrate")
	b.ReportMetric(fig.Series[1].Mean(), "large-ctr-missrate")
}

func BenchmarkFigure14(b *testing.B) {
	fig := benchFigure(b, "fig14", runner().Figure14)
	// Paper: TNPU improves the baseline by 10.0% (Small) / 7.5% (Large).
	impS, err := runner().Improvement(exp.Small, 1)
	if err != nil {
		b.Fatal(err)
	}
	impL, _ := runner().Improvement(exp.Large, 1)
	b.ReportMetric(impS, "small-improvement")
	b.ReportMetric(impL, "large-improvement")
	_ = fig
}

func BenchmarkFigure15(b *testing.B) {
	fig := benchFigure(b, "fig15", runner().Figure15)
	b.ReportMetric(fig.Series[0].Mean()-1, "small-baseline-extra-traffic")
	b.ReportMetric(fig.Series[1].Mean()-1, "small-tnpu-extra-traffic")
}

func BenchmarkFigure16(b *testing.B) {
	fig := benchFigure(b, "fig16", runner().Figure16)
	// Paper: the improvement grows to 13.3% (Small) / 8.7% (Large) at 3 NPUs.
	imp3S, err := runner().Improvement(exp.Small, 3)
	if err != nil {
		b.Fatal(err)
	}
	imp3L, _ := runner().Improvement(exp.Large, 3)
	b.ReportMetric(imp3S, "small-improvement-3npu")
	b.ReportMetric(imp3L, "large-improvement-3npu")
	_ = fig
}

func BenchmarkFigure17(b *testing.B) {
	fig := benchFigure(b, "fig17", runner().Figure17)
	b.ReportMetric(fig.Series[0].Mean(), "small-baseline-e2e-norm")
	b.ReportMetric(fig.Series[1].Mean(), "small-tnpu-e2e-norm")
}

func BenchmarkVersionTableStorage(b *testing.B) {
	var avg float64
	var peak int
	for i := 0; i < b.N; i++ {
		var err error
		_, avg, peak, err = runner().VersionStorage(exp.Small)
		if err != nil {
			b.Fatal(err)
		}
	}
	printOnce("s4d", fmt.Sprintf("Sec IV-D: version table storage avg=%.0fB max=%dB (paper: ~1.3KB avg, 7.5KB max)", avg, peak))
	b.ReportMetric(avg, "avg-bytes")
	b.ReportMetric(float64(peak), "max-bytes")
}

func BenchmarkHardwareCost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s := runner().HardwareCost()
		if i == 0 {
			printOnce("s5e", "Sec V-E: "+s.String())
			b.ReportMetric(s.AreaMM2, "mm2")
			b.ReportMetric(s.PowerMW, "mW")
		}
	}
}

// BenchmarkEncryptionOnlyBound quantifies the integrity premium: TNPU's
// cost over the scalable-SGX-like encryption-only scheme is the price of
// replay protection (Sec. II-B's trade-off, which TNPU makes affordable).
func BenchmarkEncryptionOnlyBound(b *testing.B) {
	var enc, tnpuC, baseC uint64
	for i := 0; i < b.N; i++ {
		enc = runAblation(b, "res", memprot.EncryptOnly, compiler.Config{}, nil)
		tnpuC = runAblation(b, "res", memprot.TreeLess, compiler.Config{}, nil)
		baseC = runAblation(b, "res", memprot.Baseline, compiler.Config{}, nil)
	}
	printOnce("enc-bound", fmt.Sprintf(
		"Integrity premium (res, Small): encrypt-only=%d, tnpu=%d (+%.1f%%), baseline=%d (+%.1f%%)",
		enc, tnpuC, 100*(float64(tnpuC)/float64(enc)-1), baseC, 100*(float64(baseC)/float64(enc)-1)))
	b.ReportMetric(float64(tnpuC)/float64(enc), "tnpu-vs-encrypt-only")
}

// BenchmarkSensitivitySweeps runs the beyond-paper sensitivity studies:
// bandwidth, scratchpad, and DRAM-latency scaling on the most
// protection-hostile workload.
func BenchmarkSensitivitySweeps(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		var sb []string
		for _, gen := range []func(*exp.Runner, string) (exp.Sweep, error){(*exp.Runner).BandwidthSweep, (*exp.Runner).SPMSweep, (*exp.Runner).LatencySweep} {
			sw, err := gen(exp.NewRunner("sent"), "sent")
			if err != nil {
				b.Fatal(err)
			}
			sb = append(sb, sw.String())
		}
		out = strings.Join(sb, "\n")
	}
	printOnce("sweeps", out)
}

// --- Ablations ---

// runAblation simulates one model under a mutated protection config.
func runAblation(b *testing.B, short string, scheme memprot.Scheme, compCfg compiler.Config, mutate func(*memprot.Config)) uint64 {
	b.Helper()
	m, err := model.ByShort(short)
	if err != nil {
		b.Fatal(err)
	}
	cfg := npu.SmallNPU()
	if compCfg.SPM.CapacityBytes == 0 {
		compCfg = cfg.CompilerConfig()
	}
	prog, err := compiler.Compile(m, compCfg)
	if err != nil {
		b.Fatal(err)
	}
	bus := dram.NewBus(cfg.Mem)
	mcfg := memprot.DefaultConfig(bus)
	if mutate != nil {
		mutate(&mcfg)
	}
	eng, err := memprot.New(scheme, mcfg)
	if err != nil {
		b.Fatal(err)
	}
	mach := npu.NewMachine(prog, eng)
	mach.Run()
	return mach.Cycles()
}

func BenchmarkAblationCounterCache(b *testing.B) {
	// How much counter-cache capacity would fix the baseline: sweep the
	// 4KB default on the most counter-hostile workload.
	sizes := []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 64 << 10}
	var out string
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("counter$", "sent-baseline-cycles")
		for _, sz := range sizes {
			sz := sz
			c := runAblation(b, "sent", memprot.Baseline, compiler.Config{}, func(m *memprot.Config) {
				m.CounterCacheBytes = sz
			})
			tb.AddRow(fmt.Sprintf("%dKB", sz>>10), fmt.Sprintf("%d", c))
		}
		out = tb.String()
	}
	printOnce("abl-ctr", "Ablation: counter-cache capacity (baseline, sent)\n"+out)
}

func BenchmarkAblationCounterPrefetch(b *testing.B) {
	// Would next-line counter prefetching rescue the baseline? It helps
	// streams (goo) but cannot help scattered gathers (sent).
	var out string
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("workload", "baseline", "baseline+prefetch")
		for _, short := range []string{"goo", "sent"} {
			short := short
			plain := runAblation(b, short, memprot.Baseline, compiler.Config{}, nil)
			pf := runAblation(b, short, memprot.Baseline, compiler.Config{}, func(m *memprot.Config) {
				m.CounterPrefetch = true
			})
			tb.AddRow(short, fmt.Sprintf("%d", plain), fmt.Sprintf("%d", pf))
		}
		out = tb.String()
	}
	printOnce("abl-prefetch", "Ablation: next-line counter prefetch (baseline)\n"+out)
}

func BenchmarkAblationMACCache(b *testing.B) {
	sizes := []int{2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10}
	var out string
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("mac$", "res-tnpu-cycles")
		for _, sz := range sizes {
			sz := sz
			c := runAblation(b, "res", memprot.TreeLess, compiler.Config{}, func(m *memprot.Config) {
				m.MACCacheBytes = sz
			})
			tb.AddRow(fmt.Sprintf("%dKB", sz>>10), fmt.Sprintf("%d", c))
		}
		out = tb.String()
	}
	printOnce("abl-mac", "Ablation: MAC-cache capacity (TNPU, res)\n"+out)
}

func BenchmarkAblationTreeArity(b *testing.B) {
	// SC-64 vs an SGX-MEE-like arity-8 tree: lower arity = deeper tree =
	// costlier walks.
	var a8, a64 uint64
	for i := 0; i < b.N; i++ {
		a64 = runAblation(b, "sent", memprot.Baseline, compiler.Config{}, nil)
		a8 = runAblation(b, "sent", memprot.Baseline, compiler.Config{}, func(m *memprot.Config) {
			m.TreeArity = 8
		})
	}
	printOnce("abl-arity", fmt.Sprintf("Ablation: tree arity (baseline, sent): arity64=%d cycles, arity8=%d cycles (%.2fx)",
		a64, a8, float64(a8)/float64(a64)))
	b.ReportMetric(float64(a8)/float64(a64), "arity8-vs-64")
}

func BenchmarkAblationMACSize(b *testing.B) {
	var out string
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("mac-size", "res-tnpu-cycles")
		for _, sz := range []uint64{4, 8, 16} {
			sz := sz
			c := runAblation(b, "res", memprot.TreeLess, compiler.Config{}, func(m *memprot.Config) {
				m.MACSlotBytes = sz
			})
			tb.AddRow(fmt.Sprintf("%dB", sz), fmt.Sprintf("%d", c))
		}
		out = tb.String()
	}
	printOnce("abl-macsz", "Ablation: per-block MAC size (TNPU, res)\n"+out)
}

func BenchmarkAblationVersionGranularity(b *testing.B) {
	// Per-tile (paper default) vs per-tensor version numbers: identical
	// timing on this trace shape, differing fully-protected storage.
	cfg := npu.SmallNPU().CompilerConfig()
	perTensor := cfg
	perTensor.PerTensorVersions = true
	var cTile, cTensor uint64
	for i := 0; i < b.N; i++ {
		cTile = runAblation(b, "res", memprot.TreeLess, cfg, nil)
		cTensor = runAblation(b, "res", memprot.TreeLess, perTensor, nil)
	}
	printOnce("abl-gran", fmt.Sprintf("Ablation: version granularity (TNPU, res): per-tile=%d cycles, per-tensor=%d cycles", cTile, cTensor))
	b.ReportMetric(float64(cTensor)/float64(cTile), "per-tensor-vs-per-tile")
}

func BenchmarkAblationWeightLayout(b *testing.B) {
	// Row-major (default, SCALE-Sim-style) vs pre-tiled contiguous weight
	// tiles: counter-line spatial locality is what pre-tiling buys.
	cfg := npu.SmallNPU().CompilerConfig()
	pretiled := cfg
	pretiled.PretiledWeights = true
	var pre, rm uint64
	for i := 0; i < b.N; i++ {
		rm = runAblation(b, "med", memprot.Baseline, cfg, nil)
		pre = runAblation(b, "med", memprot.Baseline, pretiled, nil)
	}
	printOnce("abl-layout", fmt.Sprintf("Ablation: weight layout (baseline, med): row-major=%d cycles, pre-tiled=%d cycles (%.2fx)",
		rm, pre, float64(rm)/float64(pre)))
	b.ReportMetric(float64(rm)/float64(pre), "rowmajor-vs-pretiled")
}

func BenchmarkAblationChannels(b *testing.B) {
	// Table II lists 4 memory channels; the default model aggregates them
	// into one bus. With explicit channels, metadata fetches overlap data
	// beats on other channels, softening the baseline's walk stalls.
	var out string
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("workload/scheme", "1-channel", "4-channel")
		for _, short := range []string{"res", "sent"} {
			for _, scheme := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
				short, scheme := short, scheme
				c1 := runAblationMem(b, short, scheme, 1)
				c4 := runAblationMem(b, short, scheme, 4)
				tb.AddRow(fmt.Sprintf("%s/%s", short, scheme), fmt.Sprintf("%d", c1), fmt.Sprintf("%d", c4))
			}
		}
		out = tb.String()
	}
	printOnce("abl-channels", "Ablation: memory channel count\n"+out)
}

// runAblationMem runs with a custom channel count on the Small NPU.
func runAblationMem(b *testing.B, short string, scheme memprot.Scheme, channels int) uint64 {
	b.Helper()
	m, err := model.ByShort(short)
	if err != nil {
		b.Fatal(err)
	}
	cfg := npu.SmallNPU()
	cfg.Mem.Channels = channels
	prog, err := compiler.Compile(m, cfg.CompilerConfig())
	if err != nil {
		b.Fatal(err)
	}
	bus := dram.NewBus(cfg.Mem)
	eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
	if err != nil {
		b.Fatal(err)
	}
	mach := npu.NewMachine(prog, eng)
	mach.Run()
	return mach.Cycles()
}

func BenchmarkAblationDataflow(b *testing.B) {
	// Output-stationary (default, the commercial designs') vs
	// weight-stationary mapping: compute-time sensitivity of the
	// protection story — the overheads are memory-side, so the scheme
	// ranking must survive a dataflow change.
	var out string
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("workload/scheme", "output-stationary", "weight-stationary")
		for _, short := range []string{"res", "med"} {
			for _, scheme := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
				short, scheme := short, scheme
				osCfg := npu.SmallNPU().CompilerConfig()
				wsCfg := osCfg
				wsCfg.Array.Flow = systolic.WeightStationary
				osC := runAblation(b, short, scheme, osCfg, nil)
				wsC := runAblation(b, short, scheme, wsCfg, nil)
				tb.AddRow(fmt.Sprintf("%s/%s", short, scheme), fmt.Sprintf("%d", osC), fmt.Sprintf("%d", wsC))
			}
		}
		out = tb.String()
	}
	printOnce("abl-dataflow", "Ablation: systolic dataflow\n"+out)
}

func BenchmarkAblationIOMMU(b *testing.B) {
	// Translation cost (Fig. 11): per-instruction IOMMU lookups with
	// EEPCM-validated page walks, versus the default where the paper's
	// 100-cycle DRAM figure subsumes translation (NeuMMU).
	var out string
	for i := 0; i < b.N; i++ {
		tb := stats.NewTable("config", "res-tnpu-cycles", "tlb-misses")
		for _, entries := range []int{0, 32, 256} {
			entries := entries
			m, err := model.ByShort("res")
			if err != nil {
				b.Fatal(err)
			}
			cfg := npu.SmallNPU()
			prog, err := compiler.Compile(m, cfg.CompilerConfig())
			if err != nil {
				b.Fatal(err)
			}
			bus := dram.NewBus(cfg.Mem)
			eng, err := memprot.New(memprot.TreeLess, memprot.DefaultConfig(bus))
			if err != nil {
				b.Fatal(err)
			}
			mach := npu.NewMachine(prog, eng)
			label := "disabled"
			if entries > 0 {
				mach.EnableTranslation(entries, 300)
				label = fmt.Sprintf("%d-entry TLB", entries)
			}
			mach.Run()
			tb.AddRow(label, fmt.Sprintf("%d", mach.Cycles()), fmt.Sprintf("%d", mach.TLBMisses))
		}
		out = tb.String()
	}
	printOnce("abl-iommu", "Ablation: IOMMU translation (TNPU, res, 300-cycle walks)\n"+out)
}
