package exp

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"tnpu/internal/memprot"
)

// TestParallelOutputByteIdentical asserts the tentpole guarantee: a
// parallel runner renders exactly the same bytes as a sequential one, for
// figure grids and for sweep tables.
func TestParallelOutputByteIdentical(t *testing.T) {
	seq := NewRunner("df", "agz")
	seq.Workers = 1
	par := NewRunner("df", "agz")
	par.Workers = 4

	// Figure 16 runs its twelve series (class x count x scheme) through
	// one pool, so cells of different series complete interleaved.
	for _, fig := range []struct {
		name string
		gen  func(*Runner) (Figure, error)
	}{{"Figure 14", (*Runner).Figure14}, {"Figure 16", (*Runner).Figure16}} {
		sf, err := fig.gen(seq)
		if err != nil {
			t.Fatal(err)
		}
		pf, err := fig.gen(par)
		if err != nil {
			t.Fatal(err)
		}
		if sf.String() != pf.String() {
			t.Errorf("parallel %s differs from sequential:\n--- sequential\n%s--- parallel\n%s", fig.name, sf.String(), pf.String())
		}
	}

	gens := map[string]func(*Runner) (Sweep, error){
		"bandwidth": func(r *Runner) (Sweep, error) { return r.BandwidthSweep("df") },
		"latency":   func(r *Runner) (Sweep, error) { return r.LatencySweep("df") },
	}
	names := make([]string, 0, len(gens))
	for name := range gens {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		gen := gens[name]
		ss, err := gen(seq)
		if err != nil {
			t.Fatal(err)
		}
		ps, err := gen(par)
		if err != nil {
			t.Fatal(err)
		}
		if ss.String() != ps.String() {
			t.Errorf("parallel %s sweep differs from sequential:\n--- sequential\n%s--- parallel\n%s", name, ss.String(), ps.String())
		}
	}
}

// TestRunnerConcurrentAccess hammers one runner from many goroutines
// (run under -race in CI) and asserts singleflight semantics: consistent
// results and each distinct cell computed exactly once.
func TestRunnerConcurrentAccess(t *testing.T) {
	r := NewRunner("df", "agz")
	r.Workers = 4

	const goroutines = 8
	cycles := make([]uint64, goroutines)
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if _, err := r.Program("agz", Small); err != nil {
				errs[g] = err
				return
			}
			res, err := r.Run("df", Small, memprot.Baseline, 1)
			if err != nil {
				errs[g] = err
				return
			}
			cycles[g] = res.Cycles
			if _, err := r.normalized("agz", Small, memprot.TreeLess, 1); err != nil {
				errs[g] = err
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	for g := 1; g < goroutines; g++ {
		if cycles[g] != cycles[0] {
			t.Fatalf("inconsistent cycles across goroutines: %d vs %d", cycles[g], cycles[0])
		}
	}
	// Exactly-once: 2 compiles (df, agz) + 3 simulations (df/baseline,
	// agz/unsecure, agz/tnpu), regardless of goroutine count.
	if got := len(r.progs); got != 2 {
		t.Errorf("compiled %d programs, want 2", got)
	}
	if got := len(r.sims); got != 3 {
		t.Errorf("simulated %d cells, want 3", got)
	}
	if got := r.Log().CellsDone(); got != 5 {
		t.Errorf("run log has %d cells, want 5 (2 compile + 3 simulate)", got)
	}
}

// TestConcurrentFigures drives whole figure generators from concurrent
// goroutines, the usage pattern of the parallel JSON/Markdown emitters.
func TestConcurrentFigures(t *testing.T) {
	r := NewRunner("df")
	r.Workers = 4
	gens := []func() (Figure, error){r.Figure4, r.Figure5, r.Figure14, r.Figure4, r.Figure5, r.Figure14}
	out := make([]Figure, len(gens))
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = gens[i]()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("generator %d: %v", i, err)
		}
	}
	for i := 0; i < 3; i++ {
		if out[i].String() != out[i+3].String() {
			t.Errorf("figure %d not reproducible across goroutines", i)
		}
	}
}

// TestSweepReusesCompiledProgram pins the sweep compile cache: the
// bandwidth and latency sweeps vary only bus parameters, so together they
// must compile the model exactly once (the SPM sweep, which changes the
// compiler view per point, gets one program per capacity).
func TestSweepReusesCompiledProgram(t *testing.T) {
	r := NewRunner("df")
	if _, err := r.BandwidthSweep("df"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.LatencySweep("df"); err != nil {
		t.Fatal(err)
	}
	if got := len(r.progs); got != 1 {
		t.Errorf("bandwidth+latency sweeps compiled %d programs, want 1", got)
	}
	if _, err := r.SPMSweep("df"); err != nil {
		t.Fatal(err)
	}
	// 128/256/1024/2048KB are new compiler views; 480KB is the Small
	// default already compiled.
	if got := len(r.progs); got != 5 {
		t.Errorf("after SPM sweep %d compiled programs, want 5", got)
	}
	// The three sweeps share the Small-default point (1x BW, 100-cycle
	// DRAM, 480KB SPM), so its three scheme cells are computed once:
	// (4+4+5) points x 3 schemes = 39 requests, minus 2x3 shared = 33.
	if got := len(r.sims); got != 33 {
		t.Errorf("sweep cells simulated %d times, want 33", got)
	}
}

// TestParallelErrorPropagation keeps the sequential error contract under
// the pool: an unknown model still surfaces as an error, and a figure
// grid spanning every series reports the same (lowest-index) error as a
// sequential run.
func TestParallelErrorPropagation(t *testing.T) {
	r := NewRunner("df", "nope", "agz")
	r.Workers = 4
	if _, err := r.Figure4(); err == nil {
		t.Error("unknown model accepted by a parallel figure grid")
	}
	seq := NewRunner("df", "nope", "agz")
	seq.Workers = 1
	_, serr := seq.Figure16()
	_, perr := r.Figure16()
	if serr == nil || perr == nil {
		t.Fatalf("unknown model accepted by Figure 16: sequential %v, parallel %v", serr, perr)
	}
	if serr.Error() != perr.Error() {
		t.Errorf("parallel Figure 16 error %q, sequential %q", perr, serr)
	}
	if _, err := r.Improvement(Small, 1); err == nil {
		t.Error("unknown model accepted by parallel Improvement")
	}
	if _, _, _, err := r.VersionStorage(Small); err == nil {
		t.Error("unknown model accepted by parallel VersionStorage")
	}
}

// TestFigureGridErrorOrder pins the grid's error contract with distinct
// errors: whatever the schedule, a figure reports the error of its lowest
// (series, model) cell in series-major order, the one the sequential
// series-by-series loop stops at.
func TestFigureGridErrorOrder(t *testing.T) {
	failing := map[[2]int]bool{{0, 2}: true, {1, 0}: true, {1, 1}: true, {2, 1}: true}
	var specs []seriesSpec
	for s := 0; s < 3; s++ {
		specs = append(specs, seriesSpec{Small, fmt.Sprint("s", s), func(short string) (float64, error) {
			m := int(short[1] - '0')
			if failing[[2]int{s, m}] {
				return 0, fmt.Errorf("series %d model %d", s, m)
			}
			return float64(s*10 + m), nil
		}})
	}
	for _, workers := range []int{1, 2, 4, 16} {
		r := NewRunner("m0", "m1", "m2")
		r.Workers = workers
		f, err := r.figure("F", "grid", specs)
		if err == nil || err.Error() != "series 0 model 2" {
			t.Errorf("%d workers: error %v, want the lowest failing cell's (series 0 model 2)", workers, err)
		}
		if f.Series != nil {
			t.Errorf("%d workers: failed figure carries %d series", workers, len(f.Series))
		}
	}
	clear(failing)
	r := NewRunner("m0", "m1", "m2")
	r.Workers = 4
	f, err := r.figure("F", "grid", specs)
	if err != nil {
		t.Fatal(err)
	}
	for s, series := range f.Series {
		for m, v := range series.Values {
			if v != float64(s*10+m) {
				t.Errorf("series %d model %d landed %v", s, m, v)
			}
		}
	}
}
