package exp

import (
	"fmt"

	"tnpu/internal/compiler"
	"tnpu/internal/dram"
	"tnpu/internal/memprot"
	"tnpu/internal/model"
	"tnpu/internal/npu"
	"tnpu/internal/stats"
)

// SweepPoint is one configuration of a sensitivity sweep.
type SweepPoint struct {
	Label string
	// Normalized is scheme/unsecure at this configuration.
	Baseline, TNPU float64
}

// Sweep holds a one-dimensional sensitivity study: how the two protection
// schemes' overheads move as one hardware parameter scales. These go
// beyond the paper's fixed Table II points and probe where its conclusion
// (tree-less wins, and wins more when metadata pressure rises) holds.
type Sweep struct {
	Name   string
	Model  string
	Points []SweepPoint
}

// String renders the sweep as a table.
func (s Sweep) String() string {
	tb := stats.NewTable(s.Name, "baseline", "tnpu", "gap")
	for _, p := range s.Points {
		tb.AddRow(p.Label, stats.F(p.Baseline), stats.F(p.TNPU), stats.F(p.Baseline-p.TNPU))
	}
	return fmt.Sprintf("Sensitivity: %s on %q\n%s", s.Name, s.Model, tb.String())
}

// sweepPoint is one labelled hardware configuration of a sweep.
type sweepPoint struct {
	label string
	cfg   npu.Config
}

// sweepOver evaluates all three schemes at each configuration, fanning the
// (point, scheme) grid across the worker pool; cells land at their grid
// index so the table is identical to a sequential build.
func (r *Runner) sweepOver(name, short string, points []sweepPoint) (Sweep, error) {
	s := Sweep{Name: name, Model: short, Points: make([]SweepPoint, len(points))}
	schemes := []memprot.Scheme{memprot.Unsecure, memprot.Baseline, memprot.TreeLess}
	cycles := make([]uint64, len(points)*len(schemes))
	err := r.forEach(len(cycles), func(i int) error {
		// A point is the x1 cell of its configuration: the Small-default
		// point is the one Figures 4 and 14 simulate.
		scheme := schemes[i%len(schemes)]
		label := func() string { return fmt.Sprintf("%s/sweep/%s", short, scheme) }
		res, err := r.simulate(simKey{short, 1, points[i/len(schemes)].cfg, scheme}, label)
		if err != nil {
			return err
		}
		cycles[i] = res.Cycles
		return nil
	})
	if err != nil {
		return Sweep{Name: name, Model: short}, err
	}
	for i, p := range points {
		u, b, tl := cycles[i*3], cycles[i*3+1], cycles[i*3+2]
		if u == 0 {
			return Sweep{Name: name, Model: short}, fmt.Errorf("exp: sweep %q point %q: unsecure run took zero cycles, cannot normalize", name, p.label)
		}
		s.Points[i] = SweepPoint{
			Label:    p.label,
			Baseline: float64(b) / float64(u),
			TNPU:     float64(tl) / float64(u),
		}
	}
	return s, nil
}

// BandwidthSweep scales the Small NPU's memory bandwidth: the baseline's
// stall-bound pathologies worsen as the bus gets faster relative to the
// fixed DRAM latency; TNPU tracks the (shrinking) traffic overhead.
func (r *Runner) BandwidthSweep(short string) (Sweep, error) {
	var points []sweepPoint
	for _, mult := range []float64{0.5, 1, 2, 4} {
		cfg := npu.SmallNPU()
		// Sweep-axis configuration, not timing accounting: the multipliers
		// are exact binary fractions of a power-of-two base bandwidth, so
		// the float round-trip is lossless here.
		cfg.Mem.BandwidthBytesPerSec = uint64(float64(cfg.Mem.BandwidthBytesPerSec) * mult) //tnpu:unitok
		points = append(points, sweepPoint{fmt.Sprintf("%.1fx BW", mult), cfg})
	}
	return r.sweepOver("memory bandwidth", short, points)
}

// SPMSweep scales the scratchpad: bigger tiles mean fewer re-reads and
// fewer counter fetches (the paper's Large-vs-Small observation).
func (r *Runner) SPMSweep(short string) (Sweep, error) {
	var points []sweepPoint
	for _, kb := range []uint64{128, 256, 480, 1024, 2048} {
		cfg := npu.SmallNPU()
		cfg.SPM.CapacityBytes = kb << 10
		points = append(points, sweepPoint{fmt.Sprintf("%dKB SPM", kb), cfg})
	}
	return r.sweepOver("scratchpad capacity", short, points)
}

// LatencySweep scales the DRAM access latency, the cost every serialized
// counter-tree level pays and TNPU avoids.
func (r *Runner) LatencySweep(short string) (Sweep, error) {
	var points []sweepPoint
	for _, lat := range []uint64{50, 100, 200, 400} {
		cfg := npu.SmallNPU()
		cfg.Mem.LatencyCycles = lat
		points = append(points, sweepPoint{fmt.Sprintf("%d-cycle DRAM", lat), cfg})
	}
	return r.sweepOver("DRAM latency", short, points)
}

// NPUCountSweep is the scalability curve for one workload: normalized
// execution time at 1–3 NPUs, per scheme and class. It returns a Figure
// (class-tagged series over NPU-count categories) rather than a Sweep so
// the serving layer can render it with plot.ClassCharts like the paper
// figures; unlike Figure16 it covers one model at every measured scheme
// instead of every model at two schemes.
func (r *Runner) NPUCountSweep(short string) (Figure, error) {
	f := Figure{
		ID:    "npucount",
		Title: fmt.Sprintf("Execution time vs NPU count on %q (normalized to same-count unsecure)", short),
	}
	counts := []string{"1 NPU", "2 NPU", "3 NPU"}
	schemes := []memprot.Scheme{memprot.Baseline, memprot.TreeLess, memprot.EncryptOnly}
	classes := Classes()
	values := make([]float64, len(classes)*len(schemes)*len(counts))
	err := r.forEach(len(values), func(i int) error {
		class := classes[i/(len(schemes)*len(counts))]
		scheme := schemes[i/len(counts)%len(schemes)]
		count := i%len(counts) + 1
		v, err := r.normalized(short, class, scheme, count)
		if err != nil {
			return err
		}
		values[i] = v
		return nil
	})
	if err != nil {
		return f, err
	}
	for ci, class := range classes {
		for si, scheme := range schemes {
			base := (ci*len(schemes) + si) * len(counts)
			f.Series = append(f.Series, Series{
				Class:  class,
				Label:  scheme.String(),
				Models: counts,
				Values: values[base : base+len(counts)],
			})
		}
	}
	return f, nil
}

// LayerShare is one layer's slice of the execution under each scheme.
type LayerShare struct {
	Layer    string
	Unsecure uint64
	Baseline uint64
	TNPU     uint64
}

// LayerBreakdown attributes execution time to model layers under each
// scheme (successive differences of layer completion times): the analysis
// behind the paper's observation that the embedding layers are where
// sent/tf lose their time under the tree-based baseline.
func LayerBreakdown(short string, class Class) ([]LayerShare, error) {
	m, err := model.ByShort(short)
	if err != nil {
		return nil, err
	}
	cfg := class.Config()
	prog, err := compiler.Compile(m, cfg.CompilerConfig())
	if err != nil {
		return nil, err
	}
	spansFor := func(scheme memprot.Scheme) ([]uint64, error) {
		bus := dram.NewBus(cfg.Mem)
		eng, err := memprot.New(scheme, memprot.DefaultConfig(bus))
		if err != nil {
			return nil, err
		}
		mach := npu.NewMachine(prog, eng)
		mach.Run()
		ends := mach.LayerSpans()
		spans := make([]uint64, len(ends))
		var prev uint64
		for i, end := range ends {
			if end > prev {
				spans[i] = end - prev
				prev = end
			}
		}
		return spans, nil
	}
	u, err := spansFor(memprot.Unsecure)
	if err != nil {
		return nil, err
	}
	b, err := spansFor(memprot.Baseline)
	if err != nil {
		return nil, err
	}
	tl, err := spansFor(memprot.TreeLess)
	if err != nil {
		return nil, err
	}
	shares := make([]LayerShare, len(m.Layers))
	for i := range m.Layers {
		shares[i] = LayerShare{Layer: m.Layers[i].Name, Unsecure: u[i], Baseline: b[i], TNPU: tl[i]}
	}
	return shares, nil
}
