package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"tnpu/internal/exp"
)

// artifactIDs names what tnpu-bench prints by default, in its order.
var artifactIDs = []string{"table3", "fig4", "fig5", "fig14", "fig15", "fig16", "fig17", "storage", "sweeps", "hwcost", "headline"}

func newRunner(models []string, workers int) *exp.Runner {
	r := exp.NewRunner(models...)
	r.Workers = workers
	return r
}

// regenerate renders every default tnpu-bench artifact into w, byte for
// byte as tnpu-bench prints it, with one span per artifact under parent.
func regenerate(r *exp.Runner, tr *tracer, parent int64, w *strings.Builder) error {
	figure := func(gen func() (exp.Figure, error)) func() error {
		return func() error {
			f, err := gen()
			if err != nil {
				return err
			}
			fmt.Fprintln(w, f.String())
			return nil
		}
	}
	runs := map[string]func() error{
		"table3": func() error { fmt.Fprintln(w, r.Table3()); return nil },
		"fig4":   figure(r.Figure4),
		"fig5":   figure(r.Figure5),
		"fig14":  figure(r.Figure14),
		"fig15":  figure(r.Figure15),
		"fig16":  figure(r.Figure16),
		"fig17":  figure(r.Figure17),
		"storage": func() error {
			per, avg, max, err := r.VersionStorage(exp.Small)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "Sec IV-D: version-table storage (Small NPU): avg=%.0fB max=%dB (paper: ~1.3KB avg, 7.5KB max)\n", avg, max)
			for _, short := range r.Models {
				fmt.Fprintf(w, "  %-5s %dB\n", short, per[short])
			}
			fmt.Fprintln(w)
			return nil
		},
		"sweeps": func() error {
			for _, gen := range []func(string) (exp.Sweep, error){r.BandwidthSweep, r.SPMSweep, r.LatencySweep} {
				sw, err := gen("sent")
				if err != nil {
					return err
				}
				fmt.Fprintln(w, sw.String())
			}
			return nil
		},
		"hwcost": func() error {
			s := r.HardwareCost()
			fmt.Fprintln(w, "Sec V-E hardware overhead:", s.String())
			for _, c := range s.PerComponent {
				fmt.Fprintf(w, "  %dx %-28s %.5f mm^2  %5.2f mW  (%s)\n",
					c.Count, c.Name, c.TotalArea(), c.TotalPower(), c.SizeNote)
			}
			fmt.Fprintln(w)
			return nil
		},
		"headline": func() error {
			for _, class := range exp.Classes() {
				i1, err := r.Improvement(class, 1)
				if err != nil {
					return err
				}
				i3, err := r.Improvement(class, 3)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, "Headline (%s NPU): TNPU improves the tree-based baseline by %.1f%% (1 NPU), %.1f%% (3 NPUs)\n",
					class, 100*i1, 100*i3)
			}
			fmt.Fprintln(w, "Paper reference: 10.0%/13.3% (small), 7.5%/8.7% (large)")
			return nil
		},
	}
	for _, id := range artifactIDs {
		sp := tr.start("exp.artifact."+id, parent, 0)
		err := runs[id]()
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
	}
	return nil
}

// prepareRegen warms the process up with a regeneration of the warm-up
// model.
func prepareRegen(b *bench) error {
	var out strings.Builder
	if err := regenerate(newRunner([]string{warmModel}, b.workers), nil, 0, &out); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	return b.oracle.checkRegen([]string{warmModel}, out.String())
}

// regenRep times one regeneration on a runner built by mk, construction
// included, and checks it against the oracle. It returns the runner and
// the repetition's wall time, or a nil runner if the repetition failed.
func (b *bench) regenRep(mk func() (*exp.Runner, error)) (*exp.Runner, time.Duration) {
	sp := b.tr.start("exp.regen", 0, 0)
	var out strings.Builder
	start := time.Now()
	r, err := mk()
	if err == nil {
		err = regenerate(r, b.tr, sp.ID, &out)
	}
	wall := time.Since(start)
	b.tr.finish(sp)
	b.op(wall)
	b.iteration(1, wall)
	if err == nil {
		err = b.oracle.checkRegen(b.opts.models, out.String())
	}
	if err != nil {
		b.fail("regeneration: %v", err)
		return nil, wall
	}
	return r, wall
}

// regenCold times full regenerations, each on a fresh runner with no
// memo store, so every cell is simulated.
func regenCold(b *bench) error {
	b.setupDone()
	cells := -1
	reps := newMeans()
	for b.more() {
		r, wall := b.regenRep(func() (*exp.Runner, error) { return newRunner(b.opts.models, b.workers), nil })
		if r == nil {
			continue
		}
		n := r.Log().CellsDone()
		if cells >= 0 && n != cells {
			b.fail("guard: regen_cold repetitions computed %d and %d cells", cells, n)
		}
		cells = n
		if b.tr != nil {
			reps.add(b.runnerLayers(r, wall, true))
		}
	}
	reps.into(b.layer)
	return nil
}

// regenWarm records a memo store in set-up, then times regenerations on
// fresh runners that replay every cell from it.
func regenWarm(b *bench) error {
	dir, err := os.MkdirTemp(b.opts.tmpDir, "regen-warm-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rec := newRunner(b.opts.models, b.workers)
	if err := rec.SetMemoDir(dir); err != nil {
		return err
	}
	var out strings.Builder
	if err := regenerate(rec, nil, 0, &out); err != nil {
		return fmt.Errorf("recording the memo store: %w", err)
	}
	if err := b.oracle.checkRegen(b.opts.models, out.String()); err != nil {
		return fmt.Errorf("recording the memo store: %w", err)
	}
	b.setupDone()

	reps := newMeans()
	for b.more() {
		r, wall := b.regenRep(func() (*exp.Runner, error) {
			r := newRunner(b.opts.models, b.workers)
			return r, r.SetMemoDir(dir)
		})
		if r == nil {
			continue
		}
		st, lm := r.CellStoreStats(), r.LayerMemoStats()
		if st.Saves != 0 || lm.Records != 0 || lm.Misses != 0 {
			b.fail("guard: a regen_warm repetition simulated (%d cell saves, %d layer records, %d layer misses)",
				st.Saves, lm.Records, lm.Misses)
		}
		if b.tr != nil {
			reps.add(b.runnerLayers(r, wall, true))
		}
	}
	reps.into(b.layer)
	return nil
}

// runnerLayers reads one runner's counters and cell log after a
// regeneration or a serve phase that took wall.
func (b *bench) runnerLayers(r *exp.Runner, wall time.Duration, figures bool) map[string]float64 {
	m := map[string]float64{}
	byKind := map[string]time.Duration{}
	var work time.Duration
	for _, c := range r.Log().Cells() {
		kind := cellKind(c)
		byKind[kind] += c.Wall
		m["exp.cell."+kind+"_n"]++
		work += c.Wall
	}
	for _, kind := range cellKinds {
		m["exp.cell."+kind+"_share"] = 0
		if work > 0 {
			m["exp.cell."+kind+"_share"] = seconds(byKind[kind]) / seconds(work)
		}
	}
	m["exp.cells_computed"] = float64(r.Log().CellsDone())
	m["exp.cell_cache_hits"] = float64(r.Log().CacheHits())
	m["exp.pool_busy_frac"] = seconds(work) / (float64(b.workers) * seconds(wall))

	lm := r.LayerMemoStats()
	m["npu.memo_hits"] = float64(lm.Hits)
	m["npu.memo_misses"] = float64(lm.Misses)
	m["npu.memo_records"] = float64(lm.Records)
	m["npu.memo_disk_hits"] = float64(lm.DiskHits)

	st := r.CellStoreStats()
	m["memostore.loads"] = float64(st.Loads)
	m["memostore.hits"] = float64(st.Hits)
	m["memostore.saves"] = float64(st.Saves)
	m["memostore.corrupt"] = float64(st.Corrupt)

	hits, misses := r.MultiCacheStats()
	m["multinpu.joint_cache_hits"] = float64(hits)
	m["multinpu.joint_cache_lookups"] = float64(hits + misses)

	if figures {
		// Figure 16 has computed every 2- and 3-NPU cell of these schemes,
		// so these lookups only read the runner's cache.
		for _, count := range []int{2, 3} {
			var blocks, runs uint64
			for _, short := range r.Models {
				for _, class := range exp.Classes() {
					for _, scheme := range e2eSchemes {
						res, err := r.Run(short, class, scheme, count)
						if err != nil {
							b.fail("multinpu stats: %v", err)
							continue
						}
						for _, n := range res.NPUs {
							blocks += n.Blocks
							runs += n.Runs
						}
					}
				}
			}
			m[fmt.Sprintf("multinpu.blocks_per_run.x%d", count)] = ratio(blocks, runs)
		}
	}
	return m
}

// cellKinds are the RunLog cell classes the per-layer metrics split by.
var cellKinds = []string{"compile", "x1", "x2", "x3", "sweep", "e2e"}

// cellKind names a RunLog cell by the layer it exercised.
func cellKind(c exp.CellTime) string {
	switch {
	case c.Kind != "simulate":
		return c.Kind
	case strings.Contains(c.Label, "/sweep/"):
		return "sweep"
	}
	return c.Label[strings.LastIndex(c.Label, " ")+1:]
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// means averages per-repetition layer readings.
type means struct {
	sum map[string]float64
	n   int
}

func newMeans() *means { return &means{sum: map[string]float64{}} }

func (m *means) add(v map[string]float64) {
	for k, x := range v {
		m.sum[k] += x
	}
	m.n++
}

func (m *means) into(dst map[string]float64) {
	for k, x := range m.sum {
		dst[k] = x / float64(m.n)
	}
}
