package e2e

import (
	"reflect"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
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

func TestPhasesAddUp(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	r, err := Run(prog, memprot.TreeLess, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.InitCycles == 0 || r.RunCycles == 0 || r.OutputCycles == 0 {
		t.Fatalf("empty phase: %+v", r)
	}
	if r.Total != r.InitCycles+r.RunCycles+r.OutputCycles {
		t.Fatalf("phases don't add up: %+v", r)
	}
	if r.Amortized() != r.RunCycles+r.OutputCycles {
		t.Fatal("amortized latency wrong")
	}
}

func TestInitCoversParameters(t *testing.T) {
	// The init phase must stream at least the parameter bytes.
	cfg := npu.SmallNPU()
	m, _ := model.ByShort("alex")
	prog := compileFor(t, "alex", cfg)
	r, err := Run(prog, memprot.Unsecure, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bus := npu.SmallNPU().Mem
	minCycles := m.WeightBytes() * bus.FreqHz / bus.BandwidthBytesPerSec
	if r.InitCycles < minCycles {
		t.Errorf("init %d cycles below bandwidth bound %d", r.InitCycles, minCycles)
	}
}

func TestEndToEndOrdering(t *testing.T) {
	// Fig. 17: unsecure < tnpu < baseline end-to-end, and in the steady
	// state once the parameters are resident.
	cfg := npu.SmallNPU()
	for _, short := range []string{"goo", "sent", "res"} {
		prog := compileFor(t, short, cfg)
		var totals, amortized [3]uint64
		for i, s := range memprot.Schemes() {
			r, err := Run(prog, s, cfg)
			if err != nil {
				t.Fatal(err)
			}
			totals[i], amortized[i] = r.Total, r.Amortized()
		}
		if !(totals[0] < totals[2] && totals[2] < totals[1]) {
			t.Errorf("%s: e2e ordering violated: %v", short, totals)
		}
		if !(amortized[0] < amortized[2] && amortized[2] < amortized[1]) {
			t.Errorf("%s: steady-state ordering violated: %v", short, amortized)
		}
	}
}

func TestEndToEndOverheadBelowNPUOnly(t *testing.T) {
	// The paper's observation: end-to-end overheads (14.1% baseline /
	// 6.4% TNPU) are lower than NPU-only overheads because the
	// initialization streaming is comparatively protection-friendly.
	cfg := npu.SmallNPU()
	prog := compileFor(t, "sent", cfg)

	npuOnly := func(s memprot.Scheme) float64 {
		r, _ := npu.Run(prog, s, cfg)
		return float64(r.Cycles)
	}
	e2eTotal := func(s memprot.Scheme) float64 {
		r, _ := Run(prog, s, cfg)
		return float64(r.Total)
	}
	npuOver := npuOnly(memprot.Baseline) / npuOnly(memprot.Unsecure)
	e2eOver := e2eTotal(memprot.Baseline) / e2eTotal(memprot.Unsecure)
	if e2eOver >= npuOver {
		t.Errorf("e2e overhead %.3f not below NPU-only %.3f", e2eOver, npuOver)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := npu.LargeNPU()
	prog := compileFor(t, "agz", cfg)
	a, _ := Run(prog, memprot.Baseline, cfg)
	b, _ := Run(prog, memprot.Baseline, cfg)
	if a.Total != b.Total {
		t.Error("e2e run not deterministic")
	}
}

func TestBadConfig(t *testing.T) {
	prog := compileFor(t, "df", npu.SmallNPU())
	bad := npu.SmallNPU()
	bad.Mem.BandwidthBytesPerSec = 0
	if _, err := Run(prog, memprot.Unsecure, bad); err == nil {
		t.Error("bad config accepted")
	}
}

func TestTrafficIncludesInit(t *testing.T) {
	cfg := npu.SmallNPU()
	m, _ := model.ByShort("df")
	prog := compileFor(t, "df", cfg)
	rE2E, _ := Run(prog, memprot.Unsecure, cfg)
	rNPU, _ := npu.Run(prog, memprot.Unsecure, cfg)
	extra := rE2E.Traffic.Total() - rNPU.Traffic.Total()
	if extra < m.WeightBytes() {
		t.Errorf("e2e extra traffic %d below parameter bytes %d", extra, m.WeightBytes())
	}
}

// TestStreamRunPathMatchesBlockLoops pins the enclave block streams' run
// path, one engine run per tensor on a one-segment memprot.Stream, to the
// literal block loops: the whole end-to-end result must be identical for
// every scheme on Small, Large, and a bus moving more than 64 B per cycle. On that bus a block can clear in zero cycles, so the run
// path's depth-1 window step max(r+1, busFree) would differ from the loop's
// busFree and newStream must keep the loop.
func TestStreamRunPathMatchesBlockLoops(t *testing.T) {
	fast := npu.LargeNPU()
	fast.Name = "fast-bus"
	fast.Mem.BandwidthBytesPerSec = 100_000_000_000 // 100 B/cycle at 1 GHz
	for _, cfg := range []npu.Config{npu.SmallNPU(), npu.LargeNPU(), fast} {
		prog := compileFor(t, "df", cfg)
		for _, scheme := range memprot.AllSchemes() {
			t.Run(cfg.Name+"/"+scheme.String(), func(t *testing.T) {
				got, err := Run(prog, scheme, cfg)
				if err != nil {
					t.Fatal(err)
				}
				bus := dram.NewBus(cfg.Mem)
				eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
				if err != nil {
					t.Fatal(err)
				}
				if usesRun := newStream(eng, bus).w != nil; usesRun != (cfg.Name != fast.Name) {
					t.Fatalf("newStream run path = %v on %s", usesRun, cfg.Name)
				}
				if want := run(prog, eng, stream{eng: eng}); !reflect.DeepEqual(got, want) {
					t.Fatalf("run path diverges from the block loops:\n  loops: %+v\n  run:   %+v", want, got)
				}
			})
		}
	}
}
