package multinpu

import (
	"fmt"
	"reflect"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/npu"
	"tnpu/internal/tensor"
)

// stripRuns zeroes the execution-path-dependent observability counter:
// the block-granular reference serves no engine-level run bursts, so Runs
// is the one Result field allowed to differ between the paths.
func stripRuns(r Result) Result {
	r.NPUs = append([]NPUStats(nil), r.NPUs...)
	for i := range r.NPUs {
		r.NPUs[i].Runs = 0
	}
	return r
}

// diffMulti runs the same multi-NPU workload through the block-granular
// reference and the horizon arbitration loop and requires both to succeed
// and to agree exactly on every observable except NPUStats.Runs.
func diffMulti(t *testing.T, progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config) {
	t.Helper()
	ForceBlockInterleave(true)
	ref, errRef := RunMixed(progs, scheme, cfg)
	ForceBlockInterleave(false)
	arb, errArb := RunMixed(progs, scheme, cfg)
	if errRef != nil || errArb != nil {
		// The suites run real workloads, which must simulate: an error on
		// both paths would otherwise pass without comparing anything.
		t.Fatalf("run failed: block=%v arbitrated=%v", errRef, errArb)
	}
	if got, want := stripRuns(arb), stripRuns(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("horizon arbitration diverges from block interleave (scheme %v, cfg %s):\n  block:      %+v\n  arbitrated: %+v",
			scheme, cfg.Name, want, got)
	}
}

// TestMultiNPUDifferential is the multi-NPU leg of the differential
// harness: all schemes x count 2-3 x df/res x Small/Large NPUs. -short
// keeps the df/Small column only.
func TestMultiNPUDifferential(t *testing.T) {
	for _, cfg := range []npu.Config{npu.SmallNPU(), npu.LargeNPU()} {
		for _, short := range []string{"df", "res"} {
			if testing.Short() && (cfg.Name != "small" || short != "df") {
				continue
			}
			prog := compileFor(t, short, cfg)
			for _, scheme := range memprot.AllSchemes() {
				for count := 2; count <= 3; count++ {
					t.Run(fmt.Sprintf("%s/%s/%s/x%d", cfg.Name, short, scheme, count), func(t *testing.T) {
						progs := make([]*compiler.Program, count)
						for i := range progs {
							progs[i] = prog
						}
						diffMulti(t, progs, scheme, cfg)
					})
				}
			}
		}
	}
}

// TestMixedTenancyDifferential pins the arbitration equivalence when the
// co-tenants run different models (desynchronized readiness patterns):
// df+res on two Small NPUs, and four tenants of unequal lengths (ncf, agz,
// df, sent) that run out of work at different turns, the path on which
// the arbitration's ready cache drops a machine. The four-tenant tuple
// runs on Small and Large; -short keeps Small.
func TestMixedTenancyDifferential(t *testing.T) {
	small := npu.SmallNPU()
	df := compileFor(t, "df", small)
	res := compileFor(t, "res", small)
	for _, scheme := range memprot.AllSchemes() {
		t.Run(scheme.String(), func(t *testing.T) {
			diffMulti(t, []*compiler.Program{df, res}, scheme, small)
		})
	}
	for _, cfg := range []npu.Config{small, npu.LargeNPU()} {
		if testing.Short() && cfg.Name != small.Name {
			continue
		}
		var progs []*compiler.Program
		for _, short := range []string{"ncf", "agz", "df", "sent"} {
			progs = append(progs, compileFor(t, short, cfg))
		}
		for _, scheme := range memprot.AllSchemes() {
			t.Run(fmt.Sprintf("%s/ncf+agz+df+sent/%s", cfg.Name, scheme), func(t *testing.T) {
				diffMulti(t, progs, scheme, cfg)
			})
		}
	}
}

// TestPerNPUAttribution sanity-checks the satellite counters: every NPU
// moved blocks, bytes match block counts, homogeneous co-tenants moved
// identical block counts, and the arbitrated path reports run bursts.
func TestPerNPUAttribution(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	r, err := Run(prog, memprot.TreeLess, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.NPUs) != 2 {
		t.Fatalf("NPUs has %d entries, want 2", len(r.NPUs))
	}
	for i, s := range r.NPUs {
		if s.Cycles != r.PerNPU[i] {
			t.Errorf("NPU %d: stats cycles %d != PerNPU %d", i, s.Cycles, r.PerNPU[i])
		}
		if s.Blocks == 0 {
			t.Errorf("NPU %d moved no blocks", i)
		}
		if s.ReadBytes+s.WriteBytes != s.Blocks*dram.BlockBytes {
			t.Errorf("NPU %d: %d read + %d written bytes != %d blocks * %d",
				i, s.ReadBytes, s.WriteBytes, s.Blocks, dram.BlockBytes)
		}
	}
	if r.NPUs[0].Blocks != r.NPUs[1].Blocks {
		t.Errorf("homogeneous co-tenants moved different block counts: %d vs %d", r.NPUs[0].Blocks, r.NPUs[1].Blocks)
	}
	if r.NPUs[0].Runs == 0 && r.NPUs[1].Runs == 0 {
		t.Error("arbitrated path reported zero run bursts for both NPUs")
	}
}

// --- fuzz ------------------------------------------------------------------

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

// buildMultiFuzzProgram derives a small synthetic program hunting the
// arbitration boundaries: mixed DMA/compute instructions whose segment
// sizes produce runs that straddle the co-tenant's ready time, compute
// stalls that desynchronize otherwise-lockstep machines, and a
// counter-hammer that parks a minor counter one short of / exactly at /
// one past the 7-bit wrap so the baseline re-encryption burst lands inside
// a winner's turn.
func buildMultiFuzzProgram(f *fuzzReader) *compiler.Program {
	var tr isa.Trace
	nInstr := 2 + int(f.byte()%8)
	for i := 0; i < nInstr; i++ {
		var in isa.Instr
		switch f.byte() % 8 {
		case 0, 1, 2:
			in.Op = isa.OpMvIn
		case 3, 4:
			in.Op = isa.OpMvOut
		case 5:
			in.Op = isa.OpCompute
			in.Cycles = 1 + f.u16()
		case 6:
			// Long dense segment: a run big enough that the horizon clip
			// must split it against the co-tenant's readiness.
			in.Op = isa.OpMvIn
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			blocks := 256 + f.u16()%2048
			in.Segments = append(in.Segments, isa.Segment{Addr: f.u16() * 64, Bytes: blocks * dram.BlockBytes})
		default:
			// Near-overflow hammer: rewrite one aligned range 126/127/128
			// times so the last rewrite stops one short of, exactly at, or
			// one past the baseline minor-counter wrap.
			in.Op = isa.OpMvOut
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			span := isa.Segment{Addr: f.u16() * 64, Bytes: (1 + f.u16()%32) * dram.BlockBytes}
			rep := 126 + int(f.byte()%3)
			for j := 0; j < rep; j++ {
				in.Segments = append(in.Segments, span)
			}
		}
		if in.IsDMA() && len(in.Segments) == 0 {
			in.Tensor = tensor.ID(f.byte() % 8)
			in.Tile = int(f.byte() % 16)
			in.Version = uint64(f.byte() % 5)
			nSeg := 1 + int(f.byte()%3)
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
	return &compiler.Program{Trace: tr}
}

// FuzzMultiVsBlock drives random co-tenant sets, memory geometries, and
// NPU counts through both arbitration loops and requires exact agreement
// on every observable (except the Runs counter). Identical programs give
// lockstep machines — near-simultaneous readiness on every block — while
// distinct programs exercise the streaky regime where horizon clipping
// matters.
func FuzzMultiVsBlock(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 1, 1, 6, 0, 4, 0, 0, 1, 0, 64, 5, 0, 10})
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
		schemes := memprot.AllSchemes()
		scheme := schemes[int(fr.byte())%len(schemes)]
		count := 2 + int(fr.byte()%2)
		identical := fr.byte()%2 == 0
		progs := make([]*compiler.Program, count)
		progs[0] = buildMultiFuzzProgram(fr)
		for i := 1; i < count; i++ {
			if identical {
				progs[i] = progs[0]
			} else {
				progs[i] = buildMultiFuzzProgram(fr)
			}
		}
		cfg := npu.SmallNPU()
		cfg.Mem = mem

		ForceBlockInterleave(true)
		ref, errRef := RunMixed(progs, scheme, cfg)
		ForceBlockInterleave(false)
		arb, errArb := RunMixed(progs, scheme, cfg)
		if (errRef == nil) != (errArb == nil) {
			t.Fatalf("error divergence: block=%v arbitrated=%v", errRef, errArb)
		}
		if errRef != nil {
			return
		}
		if got, want := stripRuns(arb), stripRuns(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("divergence (scheme %v, count %d, identical %v, mem %+v):\n  block:      %+v\n  arbitrated: %+v",
				scheme, count, identical, mem, want, got)
		}
	})
}

// --- allocation pin --------------------------------------------------------

// TestMultiNPUNoAllocs pins the steady-state arbitration turn at zero
// allocations: it drives arbitrate's own per-turn function (the cached
// ready scan, the horizon-stopped serve and the winner's refresh). The
// baseline scheme is excluded because minorLineOf allocates a counter
// line's minor counters on the line's first touch.
func TestMultiNPUNoAllocs(t *testing.T) {
	cfg := npu.SmallNPU()
	prog := compileFor(t, "df", cfg)
	for _, scheme := range []memprot.Scheme{memprot.Unsecure, memprot.TreeLess, memprot.EncryptOnly} {
		t.Run(scheme.String(), func(t *testing.T) {
			bus := dram.NewBus(cfg.Mem)
			eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
			if err != nil {
				t.Fatal(err)
			}
			machines := make([]*npu.Machine, 2)
			for i := range machines {
				machines[i] = npu.NewMachineAt(prog, eng, uint64(i)*contextStride, uint64(i)*slotStride)
			}
			a := newArbiter(machines)
			for i := 0; i < 50; i++ { // warm caches and the issue windows
				if !a.turn() {
					t.Fatal("run exhausted during warm-up")
				}
			}
			exhausted := false
			avg := testing.AllocsPerRun(100, func() { exhausted = !a.turn() })
			if exhausted {
				t.Fatal("run exhausted while measuring; the pin measured idle turns")
			}
			if avg != 0 {
				t.Errorf("arbitration turn allocates %.1f times per turn", avg)
			}
		})
	}
}

// --- benchmark -------------------------------------------------------------

// BenchmarkMultiNPU measures co-tenant simulation on two paths: the
// block-granular reference ("block") and live horizon arbitration
// ("arbitrated").
func BenchmarkMultiNPU(b *testing.B) {
	cfg := npu.LargeNPU()
	m := compileForBench(b, "res", cfg)
	for _, scheme := range memprot.AllSchemes() {
		for count := 2; count <= 3; count++ {
			name := fmt.Sprintf("large/res/%s/x%d", scheme, count)
			b.Run(name+"/block", func(b *testing.B) {
				ForceBlockInterleave(true)
				defer ForceBlockInterleave(false)
				for i := 0; i < b.N; i++ {
					if _, err := Run(m, scheme, cfg, count); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.Run(name+"/arbitrated", func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := Run(m, scheme, cfg, count); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

func compileForBench(b *testing.B, short string, cfg npu.Config) *compiler.Program {
	b.Helper()
	mdl, err := model.ByShort(short)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := compiler.Compile(mdl, cfg.CompilerConfig())
	if err != nil {
		b.Fatal(err)
	}
	return prog
}
