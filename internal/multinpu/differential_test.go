package multinpu

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/isa"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/npu"
	"tnpu/internal/tensor"
)

// stripRuns zeroes the execution-path-dependent observability counters:
// the block-granular reference serves no engine-level run bursts and no
// contended rounds, so Runs and RoundBlocks are the Result fields allowed
// to differ between the paths.
func stripRuns(r Result) Result {
	r.NPUs = append([]NPUStats(nil), r.NPUs...)
	for i := range r.NPUs {
		r.NPUs[i].Runs = 0
		r.NPUs[i].RoundBlocks = 0
	}
	return r
}

// roundBlocks sums the blocks contended rounds served in a result.
func roundBlocks(r Result) uint64 {
	var n uint64
	for _, s := range r.NPUs {
		n += s.RoundBlocks
	}
	return n
}

// diffMulti runs the same multi-NPU workload through the block-granular
// reference and the horizon arbitration loop, requires both to succeed and
// to agree exactly on every observable except the path counters, and
// returns the arbitrated result.
func diffMulti(t *testing.T, progs []*compiler.Program, scheme memprot.Scheme, cfg npu.Config) Result {
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
	return arb
}

// TestMultiNPUDifferential is the multi-NPU leg of the differential
// harness: all schemes x count 2-3 x df/res x Small/Large NPUs. -short
// keeps the df/Small column only. res's long saturated stretches must be
// served partly by contended rounds under every scheme, so the comparison
// cannot pass without exercising them.
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
						arb := diffMulti(t, progs, scheme, cfg)
						if short == "res" && roundBlocks(arb) == 0 {
							t.Fatalf("no block of %s x%d was served by a contended round", short, count)
						}
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
		progs, scheme, cfg := decodeMultiFuzz(data)
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
			t.Fatalf("divergence (scheme %v, count %d, mem %+v):\n  block:      %+v\n  arbitrated: %+v",
				scheme, len(progs), cfg.Mem, want, got)
		}
	})
}

// decodeMultiFuzz maps a fuzz input to a co-tenant set: memory geometry,
// scheme, NPU count, and identical or distinct programs.
func decodeMultiFuzz(data []byte) ([]*compiler.Program, memprot.Scheme, npu.Config) {
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
	return progs, scheme, cfg
}

// TestFuzzSeedsEnterRounds checks that every checked-in FuzzMultiVsBlock
// seed named round-* is served partly by a contended round, so each pins
// the round path it was chosen for (the fuzz target compares it with the
// block reference): a tenant out of work mid-round, a segment end inside
// a period, a tenant that is not gate-bound (a horizon), a round entered
// after a refused entry on a backfillable gap, an irregular x3 Large
// pattern, open lines sharing a set, a baseline counter miss inside a
// round, and a baseline write round.
func TestFuzzSeedsEnterRounds(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzMultiVsBlock", "round-*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 8 {
		t.Fatalf("found %d round-* seeds, want at least 8", len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
			if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
				!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
				t.Fatalf("not a one-value []byte corpus file: %q", raw)
			}
			data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
			if err != nil {
				t.Fatal(err)
			}
			progs, scheme, cfg := decodeMultiFuzz([]byte(data))
			res, err := RunMixed(progs, scheme, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if roundBlocks(res) == 0 {
				t.Errorf("seed serves no block by a contended round (scheme %v, x%d)", scheme, len(progs))
			}
		})
	}
}

// TestRoundOpenLineEviction pins rounds in which a co-tenant's miss would
// evict a line another tenant holds open. Tenant A computes, then streams
// one dense transfer that starts one block into a MAC line; by the time it
// joins, tenant B has been streaming alone, so A's first window of blocks
// issues back to back and the rounds alternate whole windows of A and of
// B, with A's windows ending inside a line it accesses again. B (and C at
// x3) moves short segments 8KB apart, so each of its segments opens a new
// MAC line, all in one set, and a new counter line in one of four sets.
// Whenever A's open line sits in such a set, B's window of openings makes
// it the least recently used line there. A round must end before that
// miss (cache.Stamps reports it as a conflict), or A's next block would
// hit a line the cache no longer holds: the MAC cases for tnpu and
// baseline, and the counter case for baseline, each diverge from the block
// reference when the refusal is dropped. The fuzz target cannot build
// these streams: its instructions carry at most three distinct segments.
func TestRoundOpenLineEviction(t *testing.T) {
	dense := func(op isa.Op, cycles uint64) *compiler.Program {
		var tr isa.Trace
		c := tr.Append(isa.Instr{Op: isa.OpCompute, Cycles: cycles})
		tr.Append(isa.Instr{Op: op, Tensor: 1, Version: 1, Deps: []int32{c},
			Segments: []isa.Segment{{Addr: dram.BlockBytes, Bytes: 2048 * dram.BlockBytes}}})
		return &compiler.Program{Trace: tr}
	}
	strided := func(op isa.Op, blocks uint64) *compiler.Program {
		in := isa.Instr{Op: op, Tensor: 2, Version: 1}
		for k := uint64(0); k < 512; k++ {
			in.Segments = append(in.Segments, isa.Segment{Addr: 1<<20 + 1024 + k*8<<10, Bytes: blocks * dram.BlockBytes})
		}
		var tr isa.Trace
		tr.Append(in)
		return &compiler.Program{Trace: tr}
	}
	for _, tc := range []struct {
		name   string
		scheme memprot.Scheme
		op     isa.Op
		count  int
		blocks uint64 // per segment of B and C
		cycles uint64 // A's compute before its transfer
	}{
		{"mac", memprot.TreeLess, isa.OpMvIn, 2, 2, 3000},
		{"mac", memprot.TreeLess, isa.OpMvOut, 3, 2, 3000},
		{"mac", memprot.Baseline, isa.OpMvOut, 3, 2, 1000},
		{"counter", memprot.Baseline, isa.OpMvOut, 3, 1, 1000},
	} {
		t.Run(fmt.Sprintf("%s/%v/%v/x%d", tc.name, tc.scheme, tc.op, tc.count), func(t *testing.T) {
			b := strided(tc.op, tc.blocks)
			progs := []*compiler.Program{dense(tc.op, tc.cycles), b, b}[:tc.count]
			for _, p := range progs[:2] {
				if err := p.Trace.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			if arb := diffMulti(t, progs, tc.scheme, npu.SmallNPU()); roundBlocks(arb) == 0 {
				t.Fatal("no block was served by a contended round")
			}
		})
	}
}

// --- allocation pin --------------------------------------------------------

// TestMultiNPUNoAllocs pins the steady-state arbitration turn at zero
// allocations: it drives arbitrate's own per-turn function (a contended
// round's entry, walk and write-back, or else the cached ready scan, the
// horizon-stopped serve and the winner's refresh), and requires contended
// rounds inside the measured turns. The baseline scheme is excluded
// because minorLineOf allocates a counter line's minor counters on the
// line's first touch.
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
			a.rs = newRounds(machines, eng, bus)
			if a.rs == nil {
				t.Fatal("no round path for a single-channel bus")
			}
			rounds := func() uint64 { return machines[0].RoundBlocks() + machines[1].RoundBlocks() }
			// Warm caches, the issue windows and the round scratch state.
			for i := 0; i < 50 || rounds() == 0; i++ {
				if !a.turn() {
					t.Fatal("run exhausted during warm-up")
				}
			}
			before := rounds()
			exhausted := false
			avg := testing.AllocsPerRun(200, func() { exhausted = !a.turn() })
			if exhausted {
				t.Fatal("run exhausted while measuring; the pin measured idle turns")
			}
			if rounds() == before {
				t.Fatal("no contended round in the measured turns")
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
