// Command tnpu-plot regenerates the paper's figures and writes them as
// SVG bar charts, one file per figure, for visual comparison with the
// paper's plots.
//
// Usage:
//
//	tnpu-plot -out ./figures            # all figures, full workload set
//	tnpu-plot -out ./figures -models df,res,sent
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tnpu"
	"tnpu/internal/exp"
	"tnpu/internal/plot"
)

func main() {
	outFlag := flag.String("out", "figures", "output directory for SVG files")
	modelsFlag := flag.String("models", "", "comma-separated workload subset")
	flag.Parse()

	var models []string
	if *modelsFlag != "" {
		models = strings.Split(*modelsFlag, ",")
	}
	r := tnpu.NewPaperRunner(models...)
	if err := os.MkdirAll(*outFlag, 0o755); err != nil {
		fatal(err)
	}

	for _, spec := range exp.Figures {
		fig, err := spec.Gen(r)
		if err != nil {
			fatal(err)
		}
		series := make([]plot.ClassSeries, 0, len(fig.Series))
		for _, s := range fig.Series {
			series = append(series, plot.ClassSeries{Class: s.Class.String(), Label: s.Label, Values: s.Values})
		}
		// One chart per NPU class keeps the figures readable; the split
		// is shared with tnpu-serve's SVG endpoint (plot.ClassCharts).
		for _, cc := range plot.ClassCharts(fig.ID, fig.Title, fig.Series[0].Models, series, spec.RefLine, spec.YLabel) {
			svg, err := cc.Chart.SVG()
			if err != nil {
				fatal(err)
			}
			// "fig4" is written as figure4-small.svg and figure4-large.svg.
			path := filepath.Join(*outFlag, fmt.Sprintf("figure%s-%s.svg", strings.TrimPrefix(spec.ID, "fig"), cc.Class))
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fatal(err)
			}
			fmt.Println("wrote", path)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tnpu-plot:", err)
	os.Exit(1)
}
