// Package exp is the experiment harness: one runner per table and figure
// of the paper's evaluation (Sec. V), producing the same rows/series the
// paper reports. Results are normalized exactly as in the paper — to the
// unsecure configuration with the same NPU count — so shapes are directly
// comparable even though absolute cycles come from our simulator.
package exp

import (
	"fmt"
	"io"
	"slices"
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
// generators can share work. It is safe for concurrent use: every cell is
// computed exactly once no matter how many goroutines ask for it
// (singleflight memoization), and the figure/sweep generators fan their
// independent cells out across a bounded worker pool while keeping output
// deterministic — a parallel run is byte-identical to a sequential one.
type Runner struct {
	// Models restricts the workload set (defaults to all 14; tests use
	// subsets). Must be set before the first figure/sweep call: the
	// runner freezes its configuration at first use and panics on a
	// later mutation.
	Models []string

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
	sims    map[simKey]*cell[multinpu.Result]
	e2es    map[e2eKey]*cell[e2e.Result]
	attacks map[attackKey]*cell[*attack.Report]

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
	workers  int
	progress io.Writer
}

// freeze captures Models/Workers/Progress at the runner's first
// computation and panics if any of them changed afterwards — the
// documented "must be set before the first figure/sweep call" contract,
// enforced instead of trusted.
func (r *Runner) freeze() {
	r.used.Store(true)
	r.freezeOnce.Do(func() {
		r.frozen = frozenConfig{
			models:   append([]string(nil), r.Models...),
			workers:  r.Workers,
			progress: r.Progress,
		}
	})
	f := &r.frozen
	changed := len(r.Models) != len(f.models) || r.Workers != f.workers || r.Progress != f.progress
	for i := 0; !changed && i < len(f.models); i++ {
		changed = r.Models[i] != f.models[i]
	}
	if changed {
		panic("exp: Runner Models/Workers/Progress mutated after first use; set them before the first figure/sweep call")
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

// simKey identifies one timed simulation by what its result depends on:
// the ordered model tuple (one entry per NPU; order fixes which context
// region each program occupies), the hardware configuration and the
// scheme. A tuple whose NPUs all run one model is that model and a copy
// count; any other tuple is comma-joined with copies 1. So Run, RunMixed
// and the sweep points name each tuple one way, and a lookup of n copies
// builds no string.
type simKey struct {
	models string
	copies int
	cfg    npu.Config
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
// gets its result. Fresh computations are timed into the runner's RunLog
// under label, which is built only then: a hit allocates nothing.
func compute[K comparable, V any](r *Runner, m map[K]*cell[V], k K, kind string, label func() string, fn func() (V, error)) (V, error) {
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
	r.log.note(kind, label(), time.Since(start), r.Progress)
	close(c.done)
	return c.val, c.err
}

// NewRunner creates a runner over the given workloads (nil = all 14).
func NewRunner(models ...string) *Runner {
	if len(models) == 0 {
		models = model.ShortNames()
	}
	return &Runner{
		Models:  models,
		progs:   make(map[progKey]*cell[*compiler.Program]),
		sims:    make(map[simKey]*cell[multinpu.Result]),
		e2es:    make(map[e2eKey]*cell[e2e.Result]),
		attacks: make(map[attackKey]*cell[*attack.Report]),
	}
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
	label := func() string { return fmt.Sprintf("%s spm=%dKB", short, cfg.SPM.CapacityBytes>>10) }
	return compute(r, r.progs, k, "compile", label, func() (*compiler.Program, error) {
		m, err := model.ByShort(short)
		if err != nil {
			return nil, err
		}
		return compiler.Compile(m, cfg)
	})
}

// Run simulates (once) a model under a scheme with count NPUs: the tuple
// of count copies of short.
func (r *Runner) Run(short string, class Class, scheme memprot.Scheme, count int) (multinpu.Result, error) {
	label := func() string { return fmt.Sprintf("%s/%s/%s x%d", short, class, scheme, count) }
	return r.simulate(simKey{short, count, class.Config(), scheme}, label)
}

// RunMixed simulates (once) a mixed-tenancy cell: one program per NPU, in
// order, under a shared bus and protection engine. A tuple of one model
// repeated is the same cell as Run of that many copies.
func (r *Runner) RunMixed(shorts []string, class Class, scheme memprot.Scheme) (multinpu.Result, error) {
	joined := strings.Join(shorts, ",")
	k := simKey{joined, 1, class.Config(), scheme}
	if len(shorts) > 1 && !slices.ContainsFunc(shorts, func(s string) bool { return s != shorts[0] }) {
		k.models, k.copies = shorts[0], len(shorts)
	}
	return r.simulate(k, func() string { return fmt.Sprintf("mixed[%s]/%s/%s", joined, class, scheme) })
}

// simulate runs (once) the cell k: each tuple entry's program, compiled
// for k.cfg, on its own NPU under one shared bus and protection engine.
// Run, RunMixed and the sweep points are views of it; label names the
// cell in the run log when this call computes it.
func (r *Runner) simulate(k simKey, label func() string) (multinpu.Result, error) {
	if k.models == "" || k.copies < 1 {
		return multinpu.Result{}, fmt.Errorf("exp: %s: a simulation needs at least one model and NPU", label())
	}
	return compute(r, r.sims, k, "simulate", label, func() (multinpu.Result, error) {
		return persisted(r, simCellKey(k), appendRunResult, decodeRunResult, func() (multinpu.Result, error) {
			var progs []*compiler.Program
			for _, short := range strings.Split(k.models, ",") {
				p, err := r.program(short, k.cfg.CompilerConfig())
				if err != nil {
					return multinpu.Result{}, err
				}
				progs = append(progs, p)
			}
			for len(progs) < k.copies {
				progs = append(progs, progs[0])
			}
			res, err := multinpu.RunMixed(progs, k.scheme, k.cfg)
			if err != nil {
				return multinpu.Result{}, fmt.Errorf("exp: %s: %w", label(), err)
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
	label := func() string { return fmt.Sprintf("%s/%s/%s e2e", short, class, scheme) }
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
