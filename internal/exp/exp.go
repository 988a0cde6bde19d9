// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (Sec. V), producing the same rows/series the
// paper reports. Results are normalized exactly as in the paper — to the
// unsecure configuration with the same NPU count — so shapes are directly
// comparable even though absolute cycles come from our simulator.
package exp

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tnpu/internal/attack"
	"tnpu/internal/compiler"
	"tnpu/internal/e2e"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/multinpu"
	"tnpu/internal/npu"
	"tnpu/internal/npu/memostore"
)

// Class selects one of the two Table II NPU configurations.
type Class int

// The two evaluated NPU classes.
const (
	Small Class = iota
	Large
)

// String names the class as in the figures.
func (c Class) String() string {
	if c == Small {
		return "small"
	}
	return "large"
}

// Config returns the hardware configuration for the class.
func (c Class) Config() npu.Config {
	if c == Small {
		return npu.SmallNPU()
	}
	return npu.LargeNPU()
}

// Classes lists both classes in paper order.
func Classes() []Class { return []Class{Small, Large} }

// Runner caches compiled programs and simulation results so the figure
// generators can share work. It is safe for concurrent use: every
// (model, class, scheme, count) cell is computed exactly once no matter
// how many goroutines ask for it (singleflight memoization), and the
// figure/sweep generators fan their independent cells out across a
// bounded worker pool while keeping output deterministic — a parallel
// run is byte-identical to a sequential one.
type Runner struct {
	// Models restricts the workload set (defaults to all 14; tests use
	// subsets). Must be set before the first figure/sweep call: the
	// runner freezes its configuration at first use and panics on a
	// later mutation.
	Models []string

	// Schemes restricts which protection schemes the performance
	// artifacts simulate (nil or empty = all). Unsecure runs that serve
	// only as the normalization denominator are not filtered; disabling
	// a measured scheme drops its series (and any headline metric that
	// needs it) entirely. Must be set before the first figure/sweep call
	// (enforced like Models).
	Schemes []memprot.Scheme

	// Workers bounds how many simulation cells run concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces sequential evaluation.
	// Must be set before the first figure/sweep call (enforced like
	// Models).
	Workers int

	// Progress, when non-nil, receives one line per completed cell
	// (typically os.Stderr). Must be set before the first call
	// (enforced like Models).
	Progress io.Writer

	mu      sync.Mutex
	progs   map[progKey]*cell[*compiler.Program]
	runs    map[runKey]*cell[multinpu.Result]
	mixed   map[mixedKey]*cell[multinpu.Result]
	e2es    map[e2eKey]*cell[e2e.Result]
	attacks map[attackKey]*cell[*attack.Report]

	sweepRuns map[sweepRunKey]*cell[uint64]

	// cellStore, when attached via SetMemoDir, persists whole-run cell
	// results across processes. Set once before first use, like Models; a
	// nil store is a valid no-op (see memostore).
	cellStore *memostore.Store

	freezeOnce sync.Once
	frozen     frozenConfig
	used       atomic.Bool

	log RunLog
}

// frozenConfig snapshots the runner's public knobs at first use so later
// mutations — which would silently skew already-memoized cells — fail fast.
type frozenConfig struct {
	models   []string
	schemes  []memprot.Scheme
	workers  int
	progress io.Writer
}

// freeze captures Models/Schemes/Workers/Progress at the runner's first
// computation and panics if any of them changed afterwards — the
// documented "must be set before the first figure/sweep call" contract,
// enforced instead of trusted.
func (r *Runner) freeze() {
	r.used.Store(true)
	r.freezeOnce.Do(func() {
		r.frozen = frozenConfig{
			models:   append([]string(nil), r.Models...),
			schemes:  append([]memprot.Scheme(nil), r.Schemes...),
			workers:  r.Workers,
			progress: r.Progress,
		}
	})
	f := &r.frozen
	changed := len(r.Models) != len(f.models) || len(r.Schemes) != len(f.schemes) ||
		r.Workers != f.workers || r.Progress != f.progress
	for i := 0; !changed && i < len(f.models); i++ {
		changed = r.Models[i] != f.models[i]
	}
	for i := 0; !changed && i < len(f.schemes); i++ {
		changed = r.Schemes[i] != f.schemes[i]
	}
	if changed {
		panic("exp: Runner Models/Schemes/Workers/Progress mutated after first use; set them before the first figure/sweep call")
	}
}

// progKey caches compiled programs per distinct compiler view. Figures
// (fixed Table II classes) and sweeps (arbitrary configurations) share one
// cache: the bandwidth and latency sweeps vary only bus parameters, so all
// their points — and any figure cell with the same compiler view — share
// one compiled program.
type progKey struct {
	short string
	cfg   compiler.Config
}

type runKey struct {
	short  string
	class  Class
	scheme memprot.Scheme
	count  int
}

// mixedKey identifies one mixed-tenancy cell: an ordered workload tuple
// (order matters — it fixes which context region each program occupies)
// under one class and scheme.
type mixedKey struct {
	shorts string // comma-joined model shorts, in NPU order
	class  Class
	scheme memprot.Scheme
}

type e2eKey struct {
	short  string
	class  Class
	scheme memprot.Scheme
}

// cell is one singleflight slot: the first goroutine to claim a key
// computes it while later arrivals block on done and share the result.
type cell[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// compute memoizes fn under k in m: exactly one caller runs fn, everyone
// gets its result. Fresh computations are timed into the runner's RunLog.
func compute[K comparable, V any](r *Runner, m map[K]*cell[V], k K, kind, label string, fn func() (V, error)) (V, error) {
	r.freeze()
	r.mu.Lock()
	if c, ok := m[k]; ok {
		r.mu.Unlock()
		r.log.noteHit()
		<-c.done
		return c.val, c.err
	}
	c := &cell[V]{done: make(chan struct{})}
	m[k] = c
	r.mu.Unlock()

	start := time.Now()
	c.val, c.err = fn()
	r.log.note(kind, label, time.Since(start), r.Progress)
	close(c.done)
	return c.val, c.err
}

// NewRunner creates a runner over the given workloads (nil = all 14).
func NewRunner(models ...string) *Runner {
	if len(models) == 0 {
		models = model.ShortNames()
	}
	return &Runner{
		Models:    models,
		progs:     make(map[progKey]*cell[*compiler.Program]),
		runs:      make(map[runKey]*cell[multinpu.Result]),
		mixed:     make(map[mixedKey]*cell[multinpu.Result]),
		e2es:      make(map[e2eKey]*cell[e2e.Result]),
		attacks:   make(map[attackKey]*cell[*attack.Report]),
		sweepRuns: make(map[sweepRunKey]*cell[uint64]),
	}
}

// ParseSchemes resolves a comma-separated scheme list ("baseline,tnpu")
// against the memprot scheme names, for the -schemes CLI filter.
func ParseSchemes(csv string) ([]memprot.Scheme, error) {
	var out []memprot.Scheme
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for _, s := range memprot.AllSchemes() {
			if s.String() == name {
				out = append(out, s)
				found = true
				break
			}
		}
		if !found {
			valid := make([]string, 0, len(memprot.AllSchemes()))
			for _, s := range memprot.AllSchemes() {
				valid = append(valid, s.String())
			}
			return nil, fmt.Errorf("exp: unknown scheme %q (valid: %s)", name, strings.Join(valid, ","))
		}
	}
	if len(out) == 0 && strings.TrimSpace(csv) != "" {
		valid := make([]string, 0, len(memprot.AllSchemes()))
		for _, s := range memprot.AllSchemes() {
			valid = append(valid, s.String())
		}
		return nil, fmt.Errorf("exp: scheme filter %q selects no schemes (valid: %s)", csv, strings.Join(valid, ","))
	}
	return out, nil
}

// SchemeEnabled reports whether the runner's scheme filter admits s.
func (r *Runner) SchemeEnabled(s memprot.Scheme) bool {
	if len(r.Schemes) == 0 {
		return true
	}
	for _, e := range r.Schemes {
		if e == s {
			return true
		}
	}
	return false
}

// schemeSubset filters a generator's natural scheme list down to the
// enabled set, preserving the generator's order.
func (r *Runner) schemeSubset(want ...memprot.Scheme) []memprot.Scheme {
	out := make([]memprot.Scheme, 0, len(want))
	for _, s := range want {
		if r.SchemeEnabled(s) {
			out = append(out, s)
		}
	}
	return out
}

// ImprovementAvailable reports whether the scheme filter admits both
// schemes the headline Improvement metric compares.
func (r *Runner) ImprovementAvailable() bool {
	return r.SchemeEnabled(memprot.Baseline) && r.SchemeEnabled(memprot.TreeLess)
}

// Log exposes the runner's instrumentation record: per-cell wall times,
// completion counts, and compile-vs-simulate totals.
func (r *Runner) Log() *RunLog { return &r.log }

// Program compiles (once) a model for a class.
func (r *Runner) Program(short string, class Class) (*compiler.Program, error) {
	return r.program(short, class.Config().CompilerConfig())
}

// program compiles (once) a model for an arbitrary compiler view — the
// shared cache behind Program and the sweep points.
func (r *Runner) program(short string, cfg compiler.Config) (*compiler.Program, error) {
	k := progKey{short, cfg}
	label := fmt.Sprintf("%s spm=%dKB", short, cfg.SPM.CapacityBytes>>10)
	return compute(r, r.progs, k, "compile", label, func() (*compiler.Program, error) {
		m, err := model.ByShort(short)
		if err != nil {
			return nil, err
		}
		return compiler.Compile(m, cfg)
	})
}

// Run simulates (once) a model under a scheme with count NPUs.
func (r *Runner) Run(short string, class Class, scheme memprot.Scheme, count int) (multinpu.Result, error) {
	k := runKey{short, class, scheme, count}
	label := fmt.Sprintf("%s/%s/%s x%d", short, class, scheme, count)
	return compute(r, r.runs, k, "simulate", label, func() (multinpu.Result, error) {
		return persisted(r, runCellKey(short, class.Config(), scheme, count), appendRunResult, decodeRunResult, func() (multinpu.Result, error) {
			p, err := r.Program(short, class)
			if err != nil {
				return multinpu.Result{}, err
			}
			res, err := multinpu.Run(p, scheme, class.Config(), count)
			if err != nil {
				return multinpu.Result{}, fmt.Errorf("exp: %s/%s/%s x%d: %w", short, class, scheme, count, err)
			}
			return res, nil
		})
	})
}

// RunMixed simulates (once) a mixed-tenancy cell: one program per NPU, in
// order, under a shared bus and protection engine. The tuple is a cell
// like any other — singleflighted in memory and addressable by serve's
// disk cache.
func (r *Runner) RunMixed(shorts []string, class Class, scheme memprot.Scheme) (multinpu.Result, error) {
	joined := strings.Join(shorts, ",")
	k := mixedKey{joined, class, scheme}
	label := fmt.Sprintf("mixed[%s]/%s/%s", joined, class, scheme)
	return compute(r, r.mixed, k, "simulate", label, func() (multinpu.Result, error) {
		if len(shorts) == 0 {
			return multinpu.Result{}, fmt.Errorf("exp: mixed-tenancy run needs at least one model")
		}
		return persisted(r, mixedCellKey(shorts, class.Config(), scheme), appendRunResult, decodeRunResult, func() (multinpu.Result, error) {
			progs := make([]*compiler.Program, len(shorts))
			for i, short := range shorts {
				p, err := r.Program(short, class)
				if err != nil {
					return multinpu.Result{}, err
				}
				progs[i] = p
			}
			res, err := multinpu.RunMixed(progs, scheme, class.Config())
			if err != nil {
				return multinpu.Result{}, fmt.Errorf("exp: mixed[%s]/%s/%s: %w", joined, class, scheme, err)
			}
			return res, nil
		})
	})
}

// MultiCacheStats always returns 0, 0: multi-NPU results are cached only
// by the per-cell singleflight maps.
//
// Deprecated: the joint-run cache it reported on is gone.
func (r *Runner) MultiCacheStats() (hits, misses uint64) { return 0, 0 }

// EndToEnd simulates (once) the Sec. V-D flow.
func (r *Runner) EndToEnd(short string, class Class, scheme memprot.Scheme) (e2e.Result, error) {
	k := e2eKey{short, class, scheme}
	label := fmt.Sprintf("%s/%s/%s e2e", short, class, scheme)
	return compute(r, r.e2es, k, "e2e", label, func() (e2e.Result, error) {
		return persisted(r, e2eCellKey(short, class.Config(), scheme), appendE2EResult, decodeE2EResult, func() (e2e.Result, error) {
			p, err := r.Program(short, class)
			if err != nil {
				return e2e.Result{}, err
			}
			return e2e.Run(p, scheme, class.Config())
		})
	})
}

// normalized returns scheme cycles / unsecure cycles for one cell.
func (r *Runner) normalized(short string, class Class, scheme memprot.Scheme, count int) (float64, error) {
	base, err := r.Run(short, class, memprot.Unsecure, count)
	if err != nil {
		return 0, err
	}
	v, err := r.Run(short, class, scheme, count)
	if err != nil {
		return 0, err
	}
	if base.Cycles == 0 {
		return 0, fmt.Errorf("exp: %s/%s x%d: unsecure run took zero cycles, cannot normalize", short, class, count)
	}
	return float64(v.Cycles) / float64(base.Cycles), nil
}
