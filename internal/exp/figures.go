package exp

import (
	"fmt"
	"strings"

	"tnpu/internal/hwcost"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/stats"
)

// Series is one figure's data: per-model values for one (class, label)
// line, plus the arithmetic mean the paper quotes.
type Series struct {
	Class  Class
	Label  string
	Models []string
	Values []float64
}

// Mean returns the arithmetic mean (the paper reports averages).
func (s Series) Mean() float64 { return stats.Mean(s.Values) }

// Figure is a titled collection of series with a table rendering.
type Figure struct {
	ID     string
	Title  string
	Series []Series
}

// String renders the figure as an aligned table with a mean column.
func (f Figure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	if len(f.Series) == 0 {
		return b.String()
	}
	header := append([]string{"series"}, f.Series[0].Models...)
	header = append(header, "mean")
	tb := stats.NewTable(header...)
	for _, s := range f.Series {
		row := []string{fmt.Sprintf("%s/%s", s.Class, s.Label)}
		for _, v := range s.Values {
			row = append(row, stats.F(v))
		}
		row = append(row, stats.F(s.Mean()))
		tb.AddRow(row...)
	}
	b.WriteString(tb.String())
	return b.String()
}

// seriesSpec is one figure series before evaluation: its class, its
// label, and the per-model value.
type seriesSpec struct {
	class Class
	label string
	value func(short string) (float64, error)
}

// figure evaluates a figure's whole (series x model) grid through one
// forEach, series-major: cell k is series k/len(models), model
// k%len(models). Values land in their index-addressed slots and the error
// is the lowest-index one, so the figure, and the error on failure, are
// those of evaluating the series one after another, each over the models
// in order; one pool spans every series, so no worker idles at a series
// boundary. On error the figure carries no series.
func (r *Runner) figure(id, title string, specs []seriesSpec) (Figure, error) {
	f := Figure{ID: id, Title: title}
	n := len(r.Models)
	var series []Series
	for _, sp := range specs {
		series = append(series, Series{Class: sp.class, Label: sp.label, Models: r.Models, Values: make([]float64, n)})
	}
	err := r.forEach(len(specs)*n, func(k int) error {
		s, m := k/n, k%n
		v, err := specs[s].value(r.Models[m])
		if err != nil {
			return err
		}
		series[s].Values[m] = v
		return nil
	})
	if err != nil {
		return f, err
	}
	f.Series = series
	return f, nil
}

// FigureSpec is one figure of the evaluation: the name tnpu-bench's -only
// and -json and tnpu-serve's /api/figure use for it, its generator, and
// how it is charted (the reference line, 0 for none, and the y label).
type FigureSpec struct {
	ID      string
	Gen     func(*Runner) (Figure, error)
	RefLine float64
	YLabel  string
}

// Figures lists the evaluation's figures in paper order.
var Figures = []FigureSpec{
	{"fig4", (*Runner).Figure4, 1, "normalized execution time"},
	{"fig5", (*Runner).Figure5, 0, "counter cache miss rate"},
	{"fig14", (*Runner).Figure14, 1, "normalized execution time"},
	{"fig15", (*Runner).Figure15, 1, "normalized memory traffic"},
	{"fig16", (*Runner).Figure16, 1, "normalized execution time"},
	{"fig17", (*Runner).Figure17, 1, "normalized end-to-end latency"},
}

// AllFigures computes every figure of Figures, fanning the generators
// across the worker pool. Results come back in Figures order.
func (r *Runner) AllFigures() ([]Figure, error) {
	figs := make([]Figure, len(Figures))
	err := r.forEach(len(Figures), func(i int) error {
		f, err := Figures[i].Gen(r)
		figs[i] = f
		return err
	})
	return figs, err
}

// normalizedSeries is one normalized-execution-time series per (class,
// scheme) at count NPUs, class-major.
func (r *Runner) normalizedSeries(count int, schemes ...memprot.Scheme) []seriesSpec {
	var specs []seriesSpec
	for _, class := range Classes() {
		for _, scheme := range schemes {
			specs = append(specs, seriesSpec{class, scheme.String(), func(short string) (float64, error) {
				return r.normalized(short, class, scheme, count)
			}})
		}
	}
	return specs
}

// Figure4 reproduces the motivation figure: execution time of the
// tree-based baseline normalized to unsecure runs, both NPU classes.
func (r *Runner) Figure4() (Figure, error) {
	return r.figure("Figure 4", "Tree-based protection overhead (normalized execution time)",
		r.normalizedSeries(1, memprot.Baseline))
}

// Figure5 reproduces the counter-cache miss-rate figure.
func (r *Runner) Figure5() (Figure, error) {
	var specs []seriesSpec
	for _, class := range Classes() {
		specs = append(specs, seriesSpec{class, "miss-rate", func(short string) (float64, error) {
			res, err := r.Run(short, class, memprot.Baseline, 1)
			if err != nil {
				return 0, err
			}
			return res.Counter.MissRate(), nil
		}})
	}
	return r.figure("Figure 5", "Counter cache miss rates (tree-based baseline)", specs)
}

// Figure14 reproduces the headline result: execution times of unsecure,
// baseline, and TNPU, normalized to unsecure.
func (r *Runner) Figure14() (Figure, error) {
	return r.figure("Figure 14", "Execution time normalized to unsecure (1 NPU)",
		r.normalizedSeries(1, memprot.Baseline, memprot.TreeLess))
}

// Figure15 reproduces the traffic figure: total data volume normalized to
// the unsecure run.
func (r *Runner) Figure15() (Figure, error) {
	var specs []seriesSpec
	for _, class := range Classes() {
		for _, scheme := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
			specs = append(specs, seriesSpec{class, scheme.String(), func(short string) (float64, error) {
				u, err := r.Run(short, class, memprot.Unsecure, 1)
				if err != nil {
					return 0, err
				}
				v, err := r.Run(short, class, scheme, 1)
				if err != nil {
					return 0, err
				}
				if u.Traffic.Total() == 0 {
					return 0, fmt.Errorf("exp: %s/%s: unsecure run moved zero bytes, cannot normalize traffic", short, class)
				}
				return float64(v.Traffic.Total()) / float64(u.Traffic.Total()), nil
			}})
		}
	}
	return r.figure("Figure 15", "Memory traffic normalized to unsecure", specs)
}

// Figure16 reproduces the scalability study: 1–3 NPUs, normalized to the
// unsecure run with the same NPU count. Its twelve series (class x count x
// scheme) share one pool, so the 1-NPU cells overlap the long 2- and
// 3-NPU ones.
func (r *Runner) Figure16() (Figure, error) {
	var specs []seriesSpec
	for _, class := range Classes() {
		for count := 1; count <= 3; count++ {
			for _, scheme := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
				specs = append(specs, seriesSpec{class, fmt.Sprintf("%s x%d", scheme, count), func(short string) (float64, error) {
					return r.normalized(short, class, scheme, count)
				}})
			}
		}
	}
	return r.figure("Figure 16", "Execution time vs NPU count (normalized to same-count unsecure)", specs)
}

// Figure17 reproduces the end-to-end latency figure.
func (r *Runner) Figure17() (Figure, error) {
	var specs []seriesSpec
	for _, class := range Classes() {
		for _, scheme := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
			specs = append(specs, seriesSpec{class, scheme.String(), func(short string) (float64, error) {
				u, err := r.EndToEnd(short, class, memprot.Unsecure)
				if err != nil {
					return 0, err
				}
				v, err := r.EndToEnd(short, class, scheme)
				if err != nil {
					return 0, err
				}
				if u.Total == 0 {
					return 0, fmt.Errorf("exp: %s/%s: unsecure end-to-end run took zero cycles, cannot normalize", short, class)
				}
				return float64(v.Total) / float64(u.Total), nil
			}})
		}
	}
	return r.figure("Figure 17", "End-to-end latency normalized to unsecure", specs)
}

// Table3 reproduces the benchmark table: our computed footprints against
// the paper's.
func (r *Runner) Table3() string {
	tb := stats.NewTable("model", "footprint(ours)", "footprint(paper)", "ratio")
	for _, short := range r.Models {
		m, err := model.ByShort(short)
		if err != nil {
			continue
		}
		ours := float64(m.Footprint()) / (1 << 20)
		// A workload absent from Table III (or recorded as zero) has no
		// paper reference; print n/a instead of a 0.0MB cell and a +Inf
		// ratio.
		paperCell, ratio := "n/a", "n/a"
		if paper, ok := model.PaperFootprintsMB[short]; ok && paper > 0 {
			paperCell = fmt.Sprintf("%.1fMB", paper)
			ratio = stats.F(ours / paper)
		}
		tb.AddRow(short, fmt.Sprintf("%.1fMB", ours), paperCell, ratio)
	}
	return "Table III: benchmark memory footprints\n" + tb.String()
}

// VersionStorage reproduces the Sec. IV-D storage analysis: peak
// version-table bytes per workload, with average and maximum. Each peak
// is a persisted cell, so a runner over a recorded memo store compiles
// nothing here.
func (r *Runner) VersionStorage(class Class) (perModel map[string]int, avg float64, max int, err error) {
	peaks := make([]int, len(r.Models))
	cfg := class.Config()
	err = r.forEach(len(r.Models), func(i int) error {
		short := r.Models[i]
		peak, err := persisted(r, storageCellKey(short, cfg), appendCycles, decodeCycles, func() (uint64, error) {
			p, err := r.Program(short, class)
			if err != nil {
				return 0, err
			}
			return uint64(p.Table.PeakStorageBytes()), nil
		})
		if err != nil {
			return err
		}
		peaks[i] = int(peak)
		return nil
	})
	if err != nil {
		return nil, 0, 0, err
	}
	perModel = make(map[string]int)
	sum := 0
	for i, short := range r.Models {
		perModel[short] = peaks[i]
		sum += peaks[i]
		if peaks[i] > max {
			max = peaks[i]
		}
	}
	return perModel, float64(sum) / float64(len(r.Models)), max, nil
}

// HardwareCost reproduces Sec. V-E.
func (r *Runner) HardwareCost() hwcost.Summary {
	return hwcost.Summarize(hwcost.TNPUEngine())
}

// Improvement returns the paper's headline metric: the mean reduction of
// execution time from baseline to TNPU at the given NPU count, per class
// ("improves the performance of the baseline by X%").
func (r *Runner) Improvement(class Class, count int) (float64, error) {
	if len(r.Models) == 0 {
		return 0, fmt.Errorf("exp: Improvement(%s, %d): runner has no models", class, count)
	}
	base := make([]float64, len(r.Models))
	tnpu := make([]float64, len(r.Models))
	err := r.forEach(len(r.Models), func(i int) error {
		b, err := r.normalized(r.Models[i], class, memprot.Baseline, count)
		if err != nil {
			return err
		}
		tn, err := r.normalized(r.Models[i], class, memprot.TreeLess, count)
		if err != nil {
			return err
		}
		base[i], tnpu[i] = b, tn
		return nil
	})
	if err != nil {
		return 0, err
	}
	mb := stats.Mean(base)
	if mb == 0 {
		return 0, fmt.Errorf("exp: Improvement(%s, %d): baseline mean is zero", class, count)
	}
	return 1 - stats.Mean(tnpu)/mb, nil
}
