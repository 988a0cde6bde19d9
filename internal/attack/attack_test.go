package attack

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tnpu/internal/compiler"
	"tnpu/internal/isa"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/secmem"
	"tnpu/internal/spm"
	"tnpu/internal/systolic"
)

func testCompilerCfg() compiler.Config {
	return compiler.Config{Array: systolic.Array{Rows: 32, Cols: 32}, SPM: spm.SPM{CapacityBytes: 480 << 10}}
}

// tinyModel is a 3-layer synthetic workload small enough that the full
// 96-cell matrix (4 schemes x 4 targets x 6 kinds) runs in milliseconds,
// with every traffic class present: an input, per-layer weights, an
// activation produced by fc1 and consumed by fc2, and an output.
func tinyModel() *model.Model {
	m := &model.Model{
		Name:       "TinySynthetic",
		Short:      "tiny",
		InputBytes: 2048,
		Layers: []model.Layer{
			model.FC("fc1", 8, 64, 48, -1),
			model.FC("fc2", 8, 48, 32, 0),
			model.FC("fc3", 8, 32, 16, 1),
		},
	}
	if err := m.Validate(); err != nil {
		panic(err)
	}
	return m
}

func compileShort(t *testing.T, short string) *compiler.Program {
	t.Helper()
	m, err := model.ByShort(short)
	if err != nil {
		t.Fatal(err)
	}
	return compileModel(t, m)
}

func compileModel(t *testing.T, m *model.Model) *compiler.Program {
	t.Helper()
	prog, err := compiler.Compile(m, testCompilerCfg())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func checkReport(t *testing.T, rep *Report, wantCells int) {
	t.Helper()
	if err := rep.Matrix(); err != nil {
		t.Fatalf("detection matrix violated:\n%v\n\n%s", err, rep.Table())
	}
	if len(rep.Outcomes) != wantCells {
		t.Fatalf("expected %d cells, got %d", wantCells, len(rep.Outcomes))
	}
	for _, o := range rep.Outcomes {
		if !o.Fired {
			t.Fatalf("%s/%s/%s: injection never fired", o.Scheme, o.Target, o.Kind)
		}
	}
}

// TestTinyModelFullMatrixThorough runs every (scheme, target, kind) cell
// over the synthetic workload in thorough mode — full two-request service
// flow with every read verified — and requires the paper's detection
// matrix to hold exactly.
func TestTinyModelFullMatrixThorough(t *testing.T) {
	prog := compileModel(t, tinyModel())
	rep, err := Campaign{Workers: 4, Thorough: true}.Run("tiny", prog)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 4*4*6)

	st := rep.Stats()
	for _, s := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
		if c := st[s].Coverage(); c != 1 {
			t.Errorf("%s coverage = %v, want 1.0", s, c)
		}
	}
	for _, s := range []memprot.Scheme{memprot.Unsecure, memprot.EncryptOnly} {
		if d := st[s]; d.Detected != 0 || d.Silent != 3*4 || d.Inert != 3*4 {
			t.Errorf("%s stats = %+v, want 0 detected, 12 silent, 12 inert", s, d)
		}
	}
}

// TestTinyModelFastMatchesThorough proves the campaign fast path (seeded
// victim history, victim-only verification) classifies every cell exactly
// as the thorough two-request flow does.
func TestTinyModelFastMatchesThorough(t *testing.T) {
	prog := compileModel(t, tinyModel())
	fast, err := Campaign{Workers: 2}.Run("tiny", prog)
	if err != nil {
		t.Fatal(err)
	}
	thorough, err := Campaign{Workers: 2, Thorough: true}.Run("tiny", prog)
	if err != nil {
		t.Fatal(err)
	}
	if len(fast.Outcomes) != len(thorough.Outcomes) {
		t.Fatalf("cell count mismatch: %d vs %d", len(fast.Outcomes), len(thorough.Outcomes))
	}
	for i := range fast.Outcomes {
		f, th := fast.Outcomes[i], thorough.Outcomes[i]
		if f.Got != th.Got {
			t.Errorf("%s/%s/%s: fast=%s thorough=%s", f.Scheme, f.Target, f.Kind, f.Got, th.Got)
		}
	}
}

// TestRealWorkloadsDetectionMatrix sweeps the full matrix over two real
// compiled models and a reduced (earliest-victim) sweep over a third, so
// the detection guarantees are demonstrated on genuine end-to-end traces,
// not just the synthetic workload.
func TestRealWorkloadsDetectionMatrix(t *testing.T) {
	for _, short := range []string{"df", "agz"} {
		prog := compileShort(t, short)
		rep, err := Campaign{Workers: 4}.Run(short, prog)
		if err != nil {
			t.Fatal(err)
		}
		checkReport(t, rep, 4*4*6)
		t.Logf("%s:\n%s", short, rep.Summary())
	}

	// Third workload: ncf's input is consumed as CPU-side gather indices
	// and never streamed through an mvin, so its victim classes are the
	// embedding tables (weights), activations, and the output.
	prog := compileShort(t, "ncf")
	rep, err := Campaign{
		Schemes: memprot.Schemes(),
		Targets: []Target{Weights, Activation, Output},
		Workers: 4,
	}.Run("ncf", prog)
	if err != nil {
		t.Fatal(err)
	}
	checkReport(t, rep, 3*3*6)
}

// readLog is a Memory that records the address of every verified read.
type readLog struct {
	Memory
	reads []uint64
}

func (l *readLog) ReadBlock(addr, version uint64) ([]byte, error) {
	l.reads = append(l.reads, addr)
	return l.Memory.ReadBlock(addr, version)
}

// traceReads lists, in order, the blocks a verifying request must read:
// every 64B block each mvin segment covers, then the output tensor. It
// walks the trace itself rather than through the executor's blocksOf, so
// a fault there cannot hide.
func traceReads(prog *compiler.Program) []uint64 {
	var want []uint64
	for i := range prog.Trace.Instrs {
		in := &prog.Trace.Instrs[i]
		if in.Op != isa.OpMvIn {
			continue
		}
		for _, seg := range in.Segments {
			for a := seg.Addr &^ 63; a < seg.Addr+seg.Bytes; a += 64 {
				want = append(want, a)
			}
		}
	}
	out := prog.Tensors[len(prog.Tensors)-1]
	for a := out.Addr; a < out.End(); a += 64 {
		want = append(want, a)
	}
	return want
}

// TestCleanRunVerifiesEveryBlock runs whole compiled models, unattacked,
// through every protection scheme's functional memory with the software's
// version bookkeeping: the request must complete, and it must have read
// and verified every mvin block of the trace exactly once, in trace order,
// followed by the output readback.
func TestCleanRunVerifiesEveryBlock(t *testing.T) {
	tnpu := []memprot.Scheme{memprot.TreeLess}
	runs := []struct {
		model   string
		schemes []memprot.Scheme
	}{
		{"df", memprot.AllSchemes()},
		{"agz", memprot.AllSchemes()},
		{"ncf", tnpu},
		{"alex", tnpu},
		{"res", tnpu},
	}
	for _, r := range runs {
		for _, scheme := range r.schemes {
			t.Run(r.model+"/"+scheme.String(), func(t *testing.T) {
				if r.model == "res" && testing.Short() {
					t.Skip("multi-second full-model run")
				}
				prog := compileShort(t, r.model)
				encKey, macKey := TestKeys()
				mem, err := NewMemory(scheme, prog.MemoryTop, encKey, macKey)
				if err != nil {
					t.Fatal(err)
				}
				log := &readLog{Memory: mem}
				if err := NewExecutor(prog, log).RunRequest(0, true); err != nil {
					t.Fatal(err)
				}
				want := traceReads(prog)
				if len(log.reads) != len(want) {
					t.Fatalf("verified %d block reads, trace demands %d", len(log.reads), len(want))
				}
				for i := range want {
					if log.reads[i] != want[i] {
						t.Fatalf("read %d is block %#x, trace demands %#x", i, log.reads[i], want[i])
					}
				}
			})
		}
	}
}

// TestCoordinatedRollbackOutsideThreatModel documents the boundary of the
// tree-less scheme's guarantee: an attacker who could roll back BOTH the
// data block and its version-table entry coherently would go undetected.
// The paper closes this by placing the version table in the fully
// protected (tree-backed) region, so the table half of the pair is not
// physically writable — the harness models that boundary, and this test
// pins down exactly what the version table's protection is load-bearing
// for.
func TestCoordinatedRollbackOutsideThreatModel(t *testing.T) {
	encKey, macKey := TestKeys()
	mem, err := NewMemory(memprot.TreeLess, 1<<16, encKey, macKey)
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x1000
	pt1 := blockPayload(addr, 1)
	if err := mem.WriteBlock(addr, pt1, 7); err != nil {
		t.Fatal(err)
	}
	stale, ok := mem.Snapshot(addr)
	if !ok {
		t.Fatal("no snapshot")
	}
	if err := mem.WriteBlock(addr, blockPayload(addr, 2), 8); err != nil {
		t.Fatal(err)
	}

	// Data-only rollback: detected, because the reader's version moved on.
	mem.Restore(addr, stale)
	if _, err := mem.ReadBlock(addr, 8); !errors.Is(err, secmem.ErrIntegrity) {
		t.Fatalf("data-only rollback: got %v, want integrity error", err)
	}

	// Coordinated rollback of data AND version: verifies cleanly. This is
	// the attack the fully-protected version table exists to rule out.
	if _, err := mem.ReadBlock(addr, 7); err != nil {
		t.Fatalf("coordinated rollback unexpectedly detected: %v", err)
	}
}

// TestInjectorReplayNeedsHistory verifies the harness refuses to fake a
// replay when the victim was never overwritten — there is no stale bus
// capture to play back, and silently passing would make the campaign lie.
func TestInjectorReplayNeedsHistory(t *testing.T) {
	encKey, macKey := TestKeys()
	mem, err := NewMemory(memprot.TreeLess, 1<<16, encKey, macKey)
	if err != nil {
		t.Fatal(err)
	}
	const addr = 0x40
	inj := NewInjector(mem, Plan{Kind: Replay, Victim: addr})
	if err := inj.WriteBlock(addr, blockPayload(addr, 1), 1); err != nil {
		t.Fatal(err)
	}
	inj.Arm()
	if _, err := inj.ReadBlock(addr, 1); err == nil {
		t.Fatal("replay with no stale capture must fail the harness")
	} else if errors.Is(err, secmem.ErrIntegrity) {
		t.Fatalf("harness failure must not masquerade as detection: %v", err)
	}
}

// TestExpectedMatrixShape pins the detection matrix itself.
func TestExpectedMatrixShape(t *testing.T) {
	for _, k := range Kinds() {
		for _, s := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
			if e := Expected(s, k); e != Detected {
				t.Errorf("Expected(%s, %s) = %s, want detected", s, k, e)
			}
		}
		for _, s := range []memprot.Scheme{memprot.Unsecure, memprot.EncryptOnly} {
			want := None
			if k == Replay || k == Splice || k == TamperData {
				want = SilentCorruption
			}
			if e := Expected(s, k); e != want {
				t.Errorf("Expected(%s, %s) = %s, want %s", s, k, e, want)
			}
		}
	}
}

// TestEnumStrings keeps report labels stable.
func TestEnumStrings(t *testing.T) {
	for _, k := range Kinds() {
		if s := k.String(); s == "" || s == "kind(?)" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	for _, tr := range Targets() {
		if s := tr.String(); s == "" || s == "target(?)" {
			t.Errorf("target %d has no name", int(tr))
		}
	}
	for _, e := range []Effect{None, SilentCorruption, Detected} {
		if s := e.String(); s == "" || s == "effect(?)" {
			t.Errorf("effect %d has no name", int(e))
		}
	}
}

// TestReportRendering exercises the table and summary paths.
func TestReportRendering(t *testing.T) {
	prog := compileModel(t, tinyModel())
	rep, err := Campaign{Workers: 2, Kinds: []Kind{Replay, TamperMAC}}.Run("tiny", prog)
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.Table()
	for _, want := range []string{"scheme", "attack", "replay", "tamper-mac", "input", "weights", "activation", "output"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
	sum := rep.Summary()
	for _, s := range memprot.AllSchemes() {
		if !strings.Contains(sum, s.String()) {
			t.Errorf("summary missing %s:\n%s", s, sum)
		}
	}
}

// TestMatrixReportsViolations checks Matrix() actually fails on a
// fabricated mismatch, so a green campaign is meaningful.
func TestMatrixReportsViolations(t *testing.T) {
	rep := &Report{Model: "x", Outcomes: []Outcome{{
		Scheme: memprot.TreeLess, Target: Input, Kind: Replay,
		Expect: Detected, Got: SilentCorruption, Fired: true,
	}}}
	if err := rep.Matrix(); err == nil {
		t.Fatal("mismatched cell must fail the matrix")
	}
	rep.Outcomes[0].Got = Detected
	if err := rep.Matrix(); err != nil {
		t.Fatalf("matching cell must pass: %v", err)
	}
	rep.Outcomes[0].Err = "boom"
	if err := rep.Matrix(); err == nil {
		t.Fatal("harness error must fail the matrix")
	}
}

// TestSelectVictimsMissingClass ensures a workload without a requested
// traffic class is rejected instead of silently dropping cells.
func TestSelectVictimsMissingClass(t *testing.T) {
	m := &model.Model{
		Name: "OneLayer", Short: "one", InputBytes: 1024,
		Layers: []model.Layer{model.FC("fc", 4, 32, 16, -1)},
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	prog := compileModel(t, m)
	if _, err := selectVictims(prog, []Target{Activation}); err == nil {
		t.Fatal("single-layer model has no activation reuse; selection must fail")
	}
}

func BenchmarkCampaignCellTreeless(b *testing.B) {
	m := tinyModel()
	prog, err := compiler.Compile(m, testCompilerCfg())
	if err != nil {
		b.Fatal(err)
	}
	v, err := selectVictims(prog, Targets())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := runCell(prog, memprot.TreeLess, Replay, Input, v, 5, false)
		if o.Err != "" || o.Got != Detected {
			b.Fatal(fmt.Sprintf("%+v", o))
		}
	}
}
