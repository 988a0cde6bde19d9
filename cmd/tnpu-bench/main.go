// Command tnpu-bench regenerates the paper's full evaluation: every table
// and figure of Sec. V, printed as aligned rows. The sweep covers
// 14 models x 2 NPU classes x 3 schemes x 1-3 NPUs; independent cells are
// fanned out across a worker pool (-parallel), with output byte-identical
// to a sequential run.
//
// Usage:
//
//	tnpu-bench                # everything
//	tnpu-bench -models df,res # restrict the workload set
//	tnpu-bench -schemes baseline,tnpu # restrict the scheme set
//	tnpu-bench -only fig14    # one artifact
//	tnpu-bench -attack        # adversarial fault-injection campaign
//	tnpu-bench -parallel 8    # worker count (0 = GOMAXPROCS)
//	tnpu-bench -v             # per-cell progress + run log on stderr
//	tnpu-bench -cpuprofile cpu.pprof  # write a CPU profile of the run
//	tnpu-bench -memprofile mem.pprof  # write an allocation profile at exit
//	tnpu-bench -perblock      # force the per-block DMA path (profiling aid)
//
// The -attack mode mounts replay, splicing, tampering, and version
// rollback faults against every scheme over real workload traces and
// checks the detection matrix; it exits non-zero if any protected scheme
// misses an injection (or an unprotected one claims a detection). The
// default workload set for -attack is df,agz,ncf; -models overrides it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"tnpu"
	"tnpu/internal/exp"
	"tnpu/internal/memprot"
	"tnpu/internal/npu"
)

func main() {
	// mainRun carries the deferred profile writers; os.Exit must happen
	// after they run.
	os.Exit(mainRun())
}

func mainRun() int {
	modelsFlag := flag.String("models", "", "comma-separated workload subset (default: all 14)")
	schemesFlag := flag.String("schemes", "", "comma-separated scheme subset for the performance artifacts (unsecure,baseline,tnpu,encrypt-only; default: all)")
	onlyFlag := flag.String("only", "", "single artifact: table3|fig4|fig5|fig14|fig15|fig16|fig17|storage|hwcost|sweeps")
	attackFlag := flag.Bool("attack", false, "run the adversarial fault-injection campaign instead of the performance artifacts")
	jsonFlag := flag.Bool("json", false, "emit the whole evaluation as JSON (for plotting scripts)")
	mdFlag := flag.String("md", "", "also write a Markdown report to this file")
	parallelFlag := flag.Int("parallel", 0, "simulation worker count (0 = GOMAXPROCS, 1 = sequential)")
	verboseFlag := flag.Bool("v", false, "log per-cell progress to stderr and print a run summary at exit")
	memoDirFlag := flag.String("memodir", "", "persistent memo-store directory: whole-run cell results recorded there survive the process and make later runs start warm (default: off)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memProfile := flag.String("memprofile", "", "write an allocation (heap) profile at exit to this file")
	perBlockFlag := flag.Bool("perblock", false, "force the per-block DMA reference path instead of the batched fast path")
	flag.Parse()

	if *perBlockFlag {
		npu.ForcePerBlock(true)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
			return 1
		}
		defer f.Close()
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize final live-heap statistics
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
			}
		}()
	}

	var models []string
	if *modelsFlag != "" {
		models = strings.Split(*modelsFlag, ",")
	} else if *attackFlag {
		models = []string{"df", "agz", "ncf"}
	}
	r := tnpu.NewPaperRunner(models...)
	if *schemesFlag != "" {
		schemes, err := exp.ParseSchemes(*schemesFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
			return 2
		}
		r.Schemes = schemes
	}
	r.Workers = *parallelFlag
	if *verboseFlag {
		r.Progress = os.Stderr
	}
	if err := r.SetMemoDir(*memoDirFlag); err != nil {
		fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
		return 2
	}

	var code int
	if *attackFlag {
		code = runAttack(r)
	} else {
		code = run(r, *onlyFlag, *jsonFlag, *mdFlag, *verboseFlag)
	}
	if *verboseFlag {
		fmt.Fprint(os.Stderr, r.Log().Summary())
		fmt.Fprintf(os.Stderr, "cell cache: %d hits\n", r.Log().CacheHits())
		if r.MemoDir() != "" {
			st := r.CellStoreStats()
			fmt.Fprintf(os.Stderr, "cell store %s: %d/%d loads hit, %d saves, %d corrupt\n",
				r.MemoDir(), st.Hits, st.Loads, st.Saves, st.Corrupt)
		}
	}
	return code
}

// schemeNames renders the valid -schemes values.
func schemeNames() string {
	names := make([]string, 0, len(memprot.AllSchemes()))
	for _, s := range memprot.AllSchemes() {
		names = append(names, s.String())
	}
	return strings.Join(names, ",")
}

// runAttack mounts the fault-injection campaign over every runner model
// and checks the paper's detection matrix. Exit code 1 means at least one
// cell violated it (a protected scheme missed an injection, or an
// unprotected scheme claimed a detection).
func runAttack(r *exp.Runner) int {
	reps, err := r.DetectionMatrix(exp.Small)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
		return 1
	}
	code := 0
	for _, rep := range reps {
		fmt.Printf("Detection matrix: %s (Small NPU)\n", rep.Model)
		fmt.Println(rep.Table())
		fmt.Println(rep.Summary())
		if err := rep.Matrix(); err != nil {
			fmt.Fprintf(os.Stderr, "tnpu-bench: %s: detection matrix violated:\n%v\n", rep.Model, err)
			code = 1
		}
	}
	if code == 0 {
		fmt.Println("detection matrix: PASS (every protected scheme detected every injection)")
	}
	return code
}

// run executes the selected artifacts and returns the process exit code.
func run(r *exp.Runner, only string, asJSON bool, mdPath string, verbose bool) int {
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "tnpu-bench:", err)
		return 1
	}
	if asJSON {
		if err := emitJSON(r); err != nil {
			return fail(err)
		}
		return 0
	}
	if mdPath != "" {
		if err := emitMarkdown(r, mdPath); err != nil {
			return fail(err)
		}
		fmt.Println("wrote", mdPath)
		return 0
	}

	type artifact struct {
		key string
		run func() error
	}
	// The -schemes filter can drain every figure (e.g. -schemes unsecure:
	// the measured series are all filtered away, and unsecure itself is
	// only ever the normalization denominator). Emitting nothing with
	// exit 0 reads as success; count empty figures so that outcome can
	// fail loudly below instead.
	figuresRun, figuresEmpty := 0, 0
	figure := func(gen func() (exp.Figure, error)) func() error {
		return func() error {
			f, err := gen()
			if err != nil {
				return err
			}
			figuresRun++
			if len(f.Series) == 0 {
				figuresEmpty++
			}
			fmt.Println(f.String())
			return nil
		}
	}
	artifacts := []artifact{
		{"table3", func() error { fmt.Println(r.Table3()); return nil }},
		{"fig4", figure(r.Figure4)},
		{"fig5", figure(r.Figure5)},
		{"fig14", figure(r.Figure14)},
		{"fig15", figure(r.Figure15)},
		{"fig16", func() error {
			f, err := r.Figure16()
			if err != nil {
				return err
			}
			figuresRun++
			if len(f.Series) == 0 {
				figuresEmpty++
			}
			fmt.Println(f.String())
			if verbose {
				return printAttribution(r)
			}
			return nil
		}},
		{"fig17", figure(r.Figure17)},
		{"storage", func() error {
			per, avg, max, err := r.VersionStorage(exp.Small)
			if err != nil {
				return err
			}
			fmt.Printf("Sec IV-D: version-table storage (Small NPU): avg=%.0fB max=%dB (paper: ~1.3KB avg, 7.5KB max)\n", avg, max)
			for _, short := range r.Models {
				fmt.Printf("  %-5s %dB\n", short, per[short])
			}
			fmt.Println()
			return nil
		}},
		{"sweeps", func() error {
			// The sweeps plot the baseline-vs-TNPU gap, so they need
			// both schemes; -schemes filters them out otherwise.
			if !r.ImprovementAvailable() {
				return nil
			}
			for _, gen := range []func(string) (exp.Sweep, error){r.BandwidthSweep, r.SPMSweep, r.LatencySweep} {
				sw, err := gen("sent")
				if err != nil {
					return err
				}
				fmt.Println(sw.String())
			}
			return nil
		}},
		{"hwcost", func() error {
			s := r.HardwareCost()
			fmt.Println("Sec V-E hardware overhead:", s.String())
			for _, c := range s.PerComponent {
				fmt.Printf("  %dx %-28s %.5f mm^2  %5.2f mW  (%s)\n",
					c.Count, c.Name, c.TotalArea(), c.TotalPower(), c.SizeNote)
			}
			fmt.Println()
			return nil
		}},
	}

	ran := false
	for _, a := range artifacts {
		if only != "" && a.key != only {
			continue
		}
		ran = true
		if err := a.run(); err != nil {
			return fail(err)
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "tnpu-bench: unknown artifact %q\n", only)
		return 2
	}
	if figuresRun > 0 && figuresEmpty == figuresRun {
		fmt.Fprintf(os.Stderr, "tnpu-bench: -schemes filter left every figure empty (valid schemes: %s; measured figures need at least one of baseline, tnpu, encrypt-only)\n",
			schemeNames())
		return 2
	}

	if only == "" && r.ImprovementAvailable() {
		// Headline summary (the numbers the paper's abstract quotes);
		// needs both compared schemes, so -schemes filters it out.
		for _, class := range exp.Classes() {
			i1, err := r.Improvement(class, 1)
			if err != nil {
				return fail(err)
			}
			i3, err := r.Improvement(class, 3)
			if err != nil {
				return fail(err)
			}
			fmt.Printf("Headline (%s NPU): TNPU improves the tree-based baseline by %.1f%% (1 NPU), %.1f%% (3 NPUs)\n",
				class, 100*i1, 100*i3)
		}
		fmt.Println("Paper reference: 10.0%/13.3% (small), 7.5%/8.7% (large)")
	}
	return 0
}

// printAttribution dumps each fig16 cell's per-NPU served-work split —
// the per-tenant QoS view of the 3-NPU co-tenant runs (cells the figure
// already computed, so this reads the cache) — and, per scheme, the share
// of the x2/x3 blocks that contended rounds served. Only measured schemes
// the -schemes filter admits are shown; unsecure, every figure's
// normalizer, always is in the share.
func printAttribution(r *exp.Runner) error {
	fmt.Println("Contended rounds (share of x2/x3 blocks served by rounds):")
	for _, scheme := range memprot.Schemes() {
		if scheme != memprot.Unsecure && !r.SchemeEnabled(scheme) {
			continue
		}
		var blocks, rounds uint64
		for _, class := range exp.Classes() {
			for count := 2; count <= 3; count++ {
				for _, short := range r.Models {
					res, err := r.Run(short, class, scheme, count)
					if err != nil {
						return err
					}
					for _, n := range res.NPUs {
						blocks += n.Blocks
						rounds += n.RoundBlocks
					}
				}
			}
		}
		share := 0.0
		if blocks > 0 {
			share = 100 * float64(rounds) / float64(blocks)
		}
		fmt.Printf("  %-12s %5.1f%% (%d of %d blocks)\n", scheme, share, rounds, blocks)
	}
	fmt.Println("Per-NPU attribution (3-NPU co-tenant runs):")
	for _, class := range exp.Classes() {
		for _, scheme := range []memprot.Scheme{memprot.Baseline, memprot.TreeLess} {
			if !r.SchemeEnabled(scheme) {
				continue
			}
			for _, short := range r.Models {
				res, err := r.Run(short, class, scheme, 3)
				if err != nil {
					return err
				}
				for i, n := range res.NPUs {
					fmt.Printf("  %-5s %-5s %-12s npu%d: cycles=%d blocks=%d rd=%.1fMB wr=%.1fMB runs=%d rounds=%d\n",
						class, short, scheme, i, n.Cycles, n.Blocks,
						float64(n.ReadBytes)/(1<<20), float64(n.WriteBytes)/(1<<20), n.Runs, n.RoundBlocks)
				}
			}
		}
	}
	fmt.Println()
	return nil
}

// figureKeys names the AllFigures results in order.
var figureKeys = []string{"fig4", "fig5", "fig14", "fig15", "fig16", "fig17"}

// jsonSeries is one plottable line.
type jsonSeries struct {
	Class  string    `json:"class"`
	Label  string    `json:"label"`
	Models []string  `json:"models"`
	Values []float64 `json:"values"`
	Mean   float64   `json:"mean"`
}

// jsonDoc is the machine-readable evaluation.
type jsonDoc struct {
	Figures        map[string][]jsonSeries `json:"figures"`
	VersionStorage map[string]int          `json:"version_storage_bytes"`
	Hardware       struct {
		AreaMM2     float64 `json:"area_mm2"`
		PowerMW     float64 `json:"power_mw"`
		SoCFraction float64 `json:"soc_fraction"`
	} `json:"hardware"`
	Improvements map[string]float64 `json:"improvements"`
}

func emitJSON(r *exp.Runner) error {
	doc := jsonDoc{Figures: map[string][]jsonSeries{}, Improvements: map[string]float64{}}
	figs, err := r.AllFigures()
	if err != nil {
		return err
	}
	for i, f := range figs {
		key := figureKeys[i]
		for _, s := range f.Series {
			doc.Figures[key] = append(doc.Figures[key], jsonSeries{
				Class: s.Class.String(), Label: s.Label,
				Models: s.Models, Values: s.Values, Mean: s.Mean(),
			})
		}
	}
	per, _, _, err := r.VersionStorage(exp.Small)
	if err != nil {
		return err
	}
	doc.VersionStorage = per
	hw := r.HardwareCost()
	doc.Hardware.AreaMM2, doc.Hardware.PowerMW, doc.Hardware.SoCFraction = hw.AreaMM2, hw.PowerMW, hw.SoCFraction
	if r.ImprovementAvailable() {
		for _, class := range exp.Classes() {
			for _, n := range []int{1, 3} {
				imp, err := r.Improvement(class, n)
				if err != nil {
					return err
				}
				doc.Improvements[fmt.Sprintf("%s-%dnpu", class, n)] = imp
			}
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// emitMarkdown writes a self-contained report regenerating the paper's
// evaluation in Markdown, for dropping into docs or CI artifacts.
func emitMarkdown(r *exp.Runner, path string) error {
	var b strings.Builder
	b.WriteString("# TNPU reproduction report\n\n")
	b.WriteString("Generated by `tnpu-bench -md`. All values normalized to the unsecure run.\n\n")
	b.WriteString("## Table III\n\n```\n" + r.Table3() + "```\n\n")
	figs, err := r.AllFigures()
	if err != nil {
		return err
	}
	names := []string{"Figure 4", "Figure 5", "Figure 14", "Figure 15", "Figure 16", "Figure 17"}
	for i, fig := range figs {
		b.WriteString("## " + names[i] + "\n\n```\n" + fig.String() + "```\n\n")
	}
	per, avg, max, err := r.VersionStorage(exp.Small)
	if err != nil {
		return err
	}
	fmt.Fprintf(&b, "## Sec IV-D version storage\n\navg %.0fB, max %dB (paper: ~1.3KB avg / 7.5KB max)\n\n", avg, max)
	for _, short := range r.Models {
		fmt.Fprintf(&b, "- %s: %dB\n", short, per[short])
	}
	fmt.Fprintf(&b, "\n## Sec V-E hardware\n\n%s\n\n", r.HardwareCost().String())
	if r.ImprovementAvailable() {
		b.WriteString("## Headline\n\n")
		for _, class := range exp.Classes() {
			i1, err := r.Improvement(class, 1)
			if err != nil {
				return err
			}
			i3, err := r.Improvement(class, 3)
			if err != nil {
				return err
			}
			fmt.Fprintf(&b, "- %s NPU: TNPU improves the baseline by %.1f%% (1 NPU), %.1f%% (3 NPUs)\n", class, 100*i1, 100*i3)
		}
		b.WriteString("- paper reference: 10.0%/13.3% (small), 7.5%/8.7% (large)\n")
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
