// Worker pool and run observability for the experiment harness.
//
// Every figure, sweep table, and headline metric is a grid of
// independent simulation cells (each owns its dram.Bus and
// memprot.Engine), so the harness fans them out across a bounded pool.
// A figure is one grid over all its (series x model) cells, series-major,
// so the pool drains once per figure rather than once per series.
// Results land in index-addressed slots, which makes parallel output
// byte-identical to the sequential order regardless of scheduling; the
// singleflight memoization in exp.go guarantees each cell is still
// computed exactly once when series share cells (every figure divides by
// the same unsecure runs).
package exp

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// workers resolves the effective parallelism.
func (r *Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// forEach evaluates fn(0..n-1) across the runner's worker budget. fn must
// write its result into an index-addressed slot owned by the caller so
// output order never depends on goroutine scheduling. The returned error
// is the lowest-index failure — the same one a sequential loop surfaces.
func (r *Runner) forEach(n int, fn func(i int) error) error {
	r.freeze()
	w := r.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CellTime records one computed cell: a compile, a multi-NPU simulation,
// an end-to-end run, or an adversarial detection campaign.
type CellTime struct {
	Kind  string // "compile", "simulate", "e2e", or "attack"
	Label string // e.g. "sent/small/baseline x3"
	Wall  time.Duration
}

// RunLog aggregates the runner's observability counters. All methods are
// safe for concurrent use; cells appear in completion order.
type RunLog struct {
	mu     sync.Mutex
	cells  []CellTime
	byKind map[string]time.Duration

	// cacheHits counts singleflight-cache lookups that were served from
	// an already-computed (or in-flight) cell instead of computing fresh.
	cacheHits atomic.Uint64
}

// noteHit records one memoized cell lookup.
func (l *RunLog) noteHit() { l.cacheHits.Add(1) }

// CacheHits reports how many cell lookups were served from the runner's
// in-memory singleflight cache rather than computed. Together with
// CellsDone (fresh computations) it quantifies how much the harness's
// memoization collapses a figure/sweep grid.
func (l *RunLog) CacheHits() uint64 { return l.cacheHits.Load() }

// note records one freshly computed cell and, when progress is non-nil,
// emits a one-line status update.
func (l *RunLog) note(kind, label string, wall time.Duration, progress io.Writer) {
	l.mu.Lock()
	l.cells = append(l.cells, CellTime{Kind: kind, Label: label, Wall: wall})
	if l.byKind == nil {
		l.byKind = make(map[string]time.Duration)
	}
	l.byKind[kind] += wall
	n := len(l.cells)
	l.mu.Unlock()
	if progress != nil {
		fmt.Fprintf(progress, "[cell %3d] %-8s %-28s %s\n", n, kind, label, wall.Round(time.Millisecond))
	}
}

// CellsDone returns how many cells have been computed so far.
func (l *RunLog) CellsDone() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.cells)
}

// Cells returns a copy of every recorded cell in completion order.
func (l *RunLog) Cells() []CellTime {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]CellTime, len(l.cells))
	copy(out, l.cells)
	return out
}

// TotalByKind returns the summed wall time of one cell kind
// ("compile", "simulate", "e2e", "attack").
func (l *RunLog) TotalByKind(kind string) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.byKind[kind]
}

// Slowest returns the n slowest cells, slowest first.
func (l *RunLog) Slowest(n int) []CellTime {
	cells := l.Cells()
	sort.SliceStable(cells, func(i, j int) bool { return cells[i].Wall > cells[j].Wall })
	if n > len(cells) {
		n = len(cells)
	}
	return cells[:n]
}

// Summary renders a human-readable digest: totals per kind plus the
// slowest cells. The wall-clock work is summed across workers, so it
// exceeds elapsed time on a parallel run.
func (l *RunLog) Summary() string {
	cells := l.Cells()
	if len(cells) == 0 {
		return "run log: no cells computed\n"
	}
	var total time.Duration
	for _, c := range cells {
		total += c.Wall
	}
	var b strings.Builder
	fmt.Fprintf(&b, "run log: %d cells, %s total work (compile %s, simulate %s, e2e %s, attack %s)\n",
		len(cells), total.Round(time.Millisecond),
		l.TotalByKind("compile").Round(time.Millisecond),
		l.TotalByKind("simulate").Round(time.Millisecond),
		l.TotalByKind("e2e").Round(time.Millisecond),
		l.TotalByKind("attack").Round(time.Millisecond))
	b.WriteString("slowest cells:\n")
	for _, c := range l.Slowest(5) {
		fmt.Fprintf(&b, "  %-28s %-8s %s\n", c.Label, c.Kind, c.Wall.Round(time.Millisecond))
	}
	return b.String()
}
