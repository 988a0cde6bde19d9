package exp

import (
	"reflect"
	"testing"

	"tnpu/internal/memprot"
	"tnpu/internal/npu"
	"tnpu/internal/npu/memostore"
)

// buildArtifacts drives one runner through every persisted simulation
// view — multi-NPU runs (Figure16), a mixed tuple, and a sweep — and
// through end-to-end cells (Figure17), and returns the rendered artifacts
// for equality comparison.
func buildArtifacts(t *testing.T, r *Runner) []string {
	t.Helper()
	f16, err := r.Figure16()
	if err != nil {
		t.Fatal(err)
	}
	f17, err := r.Figure17()
	if err != nil {
		t.Fatal(err)
	}
	mixed, err := r.RunMixed([]string{"df", "df"}, Small, memprot.TreeLess)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := r.LatencySweep("df")
	if err != nil {
		t.Fatal(err)
	}
	return []string{f16.String(), f17.String(), mixed.Traffic.String(), sw.String()}
}

// TestMemoDirRoundTrip pins the whole-run memo guarantee: a fresh runner
// (a "new process") over a directory an earlier runner recorded into
// reproduces every artifact byte-identically without simulating anything —
// every cell loads from the store, and the warm runner saves nothing.
func TestMemoDirRoundTrip(t *testing.T) {
	dir := t.TempDir()

	cold := NewRunner("df")
	if err := cold.SetMemoDir(dir); err != nil {
		t.Fatal(err)
	}
	want := buildArtifacts(t, cold)
	if s := cold.CellStoreStats(); s.Saves == 0 {
		t.Fatalf("cold runner persisted nothing: %+v", s)
	}

	warm := NewRunner("df")
	if err := warm.SetMemoDir(dir); err != nil {
		t.Fatal(err)
	}
	got := buildArtifacts(t, warm)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("memo-warm artifacts diverge from cold run:\n want %q\n got  %q", want, got)
	}
	s := warm.CellStoreStats()
	if s.Hits == 0 {
		t.Errorf("warm runner hit nothing on the store: %+v", s)
	}
	if s.Saves != 0 {
		t.Errorf("warm runner saved %d cells; every cell should load whole, none simulated", s.Saves)
	}
}

// TestWarmRunnerCompilesNothing pins the warm path: a fresh runner over a
// store that an earlier runner recorded the version-storage table and
// Figure 14 into rebuilds both identically without compiling a program
// or saving a cell.
func TestWarmRunnerCompilesNothing(t *testing.T) {
	dir := t.TempDir()
	build := func(r *Runner) (map[string]int, string) {
		t.Helper()
		if err := r.SetMemoDir(dir); err != nil {
			t.Fatal(err)
		}
		per, _, _, err := r.VersionStorage(Small)
		if err != nil {
			t.Fatal(err)
		}
		f14, err := r.Figure14()
		if err != nil {
			t.Fatal(err)
		}
		return per, f14.String()
	}
	wantPer, wantFig := build(NewRunner("df", "agz"))

	warm := NewRunner("df", "agz")
	gotPer, gotFig := build(warm)
	if !reflect.DeepEqual(gotPer, wantPer) {
		t.Errorf("warm version storage %v, recorded run %v", gotPer, wantPer)
	}
	if gotFig != wantFig {
		t.Errorf("warm Figure 14 diverges from the recorded run:\n want %s\n got  %s", wantFig, gotFig)
	}
	for _, c := range warm.Log().Cells() {
		if c.Kind == "compile" {
			t.Errorf("warm runner compiled %s", c.Label)
		}
	}
	if s := warm.CellStoreStats(); s.Saves != 0 {
		t.Errorf("warm runner saved %d cells", s.Saves)
	}
}

// TestMemoDirStaleBodyRecomputed pins the stale-shape path: a
// checksum-valid entry whose body no longer decodes (an old framing) is
// deleted and recomputed, never served.
func TestMemoDirStaleBodyRecomputed(t *testing.T) {
	dir := t.TempDir()
	key := simCellKey(simKey{"df", 1, Small.Config(), memprot.TreeLess})

	st, err := memostore.New(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Save(key, []byte("not a run result")) {
		t.Fatal("seeding stale entry failed")
	}

	r := NewRunner("df")
	if err := r.SetMemoDir(dir); err != nil {
		t.Fatal(err)
	}
	got, err := r.Run("df", Small, memprot.TreeLess, 1)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewRunner("df").Run("df", Small, memprot.TreeLess, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ref) {
		t.Errorf("stale entry leaked into the result: got %+v, fresh run says %+v", got, ref)
	}
	body, ok := st.Load(key)
	if !ok {
		t.Fatal("recomputed entry not re-persisted")
	}
	if v, ok := decodeRunResult(body); !ok || !reflect.DeepEqual(v, ref) {
		t.Errorf("re-persisted entry decodes to %+v (ok=%v), want %+v", v, ok, ref)
	}
}

// TestSetMemoDirAfterUsePanics enforces the attach-before-first-use
// contract, like the Models/Workers/Progress freeze.
func TestSetMemoDirAfterUsePanics(t *testing.T) {
	r := NewRunner("df")
	if _, err := r.Program("df", Small); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("SetMemoDir after first use did not panic")
		}
	}()
	if err := r.SetMemoDir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
}

// TestCellKeysDistinct spot-checks the whole-run key derivations: the
// workload, configuration, scheme, tuple length and tuple order all move a
// simulation's key, the e2e and storage kinds never share it, and every
// key is store-valid.
func TestCellKeysDistinct(t *testing.T) {
	cfg := Small.Config()
	sim := func(models string, copies int, cfg npu.Config, s memprot.Scheme) string {
		return simCellKey(simKey{models, copies, cfg, s})
	}
	base := sim("df", 1, cfg, memprot.TreeLess)
	if !memostore.ValidKey(base) {
		t.Fatalf("simCellKey %q is not store-valid", base)
	}
	distinct := map[string]string{
		"model":   sim("res", 1, cfg, memprot.TreeLess),
		"config":  sim("df", 1, Large.Config(), memprot.TreeLess),
		"scheme":  sim("df", 1, cfg, memprot.Baseline),
		"length":  sim("df", 2, cfg, memprot.TreeLess),
		"e2e":     e2eCellKey("df", cfg, memprot.TreeLess),
		"storage": storageCellKey("df", cfg),
	}
	for what, k := range distinct { //tnpu:orderfree — each variant checked independently
		if k == base {
			t.Errorf("changing %s did not change the cell key", what)
		}
	}
	if sim("df,res", 1, cfg, memprot.TreeLess) == sim("res,df", 1, cfg, memprot.TreeLess) {
		t.Error("tuple order does not move the key (order fixes context regions)")
	}
}

// TestPersistedRunResultRoundTrip pins the multinpu.Result body framing
// field-for-field through encode/decode.
func TestPersistedRunResultRoundTrip(t *testing.T) {
	r := NewRunner("df")
	res, err := r.Run("df", Small, memprot.Baseline, 2)
	if err != nil {
		t.Fatal(err)
	}
	dec, ok := decodeRunResult(appendRunResult(nil, &res))
	if !ok {
		t.Fatal("round-trip decode refused its own encoding")
	}
	if !reflect.DeepEqual(res, dec) {
		t.Errorf("run result round-trip mismatch:\n want %+v\n got  %+v", res, dec)
	}
	// Truncations at every prefix length must refuse, not panic.
	body := appendRunResult(nil, &res)
	for n := 0; n < len(body); n++ {
		if _, ok := decodeRunResult(body[:n]); ok {
			t.Fatalf("truncated body of %d/%d bytes decoded", n, len(body))
		}
	}
	e2eRes, err := r.EndToEnd("df", Small, memprot.TreeLess)
	if err != nil {
		t.Fatal(err)
	}
	e2eDec, ok := decodeE2EResult(appendE2EResult(nil, &e2eRes))
	if !ok {
		t.Fatal("e2e round-trip decode refused its own encoding")
	}
	if !reflect.DeepEqual(e2eRes, e2eDec) {
		t.Errorf("e2e result round-trip mismatch:\n want %+v\n got  %+v", e2eRes, e2eDec)
	}
}
