// Package checker drives analysis.Analyzers for cmd/tnpu-vet: it loads
// packages by pattern through internal/analysis/load and runs every
// analyzer over each (`tnpu-vet ./...`). One load serves the whole
// analyzer suite.
//
// A package's test variant ("pkg [pkg.test]") re-lists the non-test
// sources, so diagnostics from variants are filtered to _test.go files
// to keep every finding single-shot.
package checker

import (
	"fmt"
	"go/token"
	"io"
	"sort"
	"strings"

	"tnpu/internal/analysis"
	"tnpu/internal/analysis/load"
)

// Diagnostic is one rendered finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string
}

// String renders the finding as "file:line:col: analyzer: message", the
// form .github/tnpu-vet-matcher.json parses.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// runPackage applies analyzers to one loaded package. testOnly restricts
// reported findings to _test.go files (set for test variants whose
// non-test files were already analyzed as the base package).
func runPackage(pkg *load.Package, analyzers []*analysis.Analyzer, testOnly bool) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if testOnly && !strings.HasSuffix(pos.Filename, "_test.go") {
				return
			}
			out = append(out, Diagnostic{Position: pos, Analyzer: a.Name, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Offset != b.Position.Offset {
			return a.Position.Offset < b.Position.Offset
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// isTestVariant reports whether a loaded package is the in-package test
// variant whose non-test files are also listed as a plain package (the
// external test package, named *_test, has only _test.go files).
func isTestVariant(pkg *load.Package) bool {
	return pkg.ForTest != "" && !strings.HasSuffix(pkg.Types.Name(), "_test")
}

// Run loads patterns (tests included) in dir once, applies the suite to
// every package, and returns the diagnostics in a deterministic order.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Diagnostic, error) {
	pkgs, err := load.Load(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ds, err := runPackage(pkg, analyzers, isTestVariant(pkg))
		if err != nil {
			return nil, err
		}
		diags = append(diags, ds...)
	}
	return diags, nil
}

const usage = "usage: tnpu-vet [-only a1,a2] [packages]"

// Main is the entry point of cmd/tnpu-vet. It runs the analyzers (or the
// -only subset) over the package patterns, ./... by default, and prints
// each diagnostic to stderr. The return value is the process exit code:
// 0 when clean, 1 on a usage or load error, 2 on any diagnostic.
func Main(stderr io.Writer, args []string, analyzers []*analysis.Analyzer) int {
	var (
		only     string
		patterns []string
	)
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case arg == "-only" && i+1 < len(args):
			i++
			only = args[i]
		case strings.HasPrefix(arg, "-only="):
			only = strings.TrimPrefix(arg, "-only=")
		case strings.HasPrefix(arg, "-"):
			fmt.Fprintf(stderr, "tnpu-vet: unknown flag %s\n%s\n", arg, usage)
			return 1
		default:
			patterns = append(patterns, arg)
		}
	}
	if only != "" {
		var selected []*analysis.Analyzer
		for _, name := range strings.Split(only, ",") {
			found := false
			for _, a := range analyzers {
				if a.Name == name {
					selected = append(selected, a)
					found = true
				}
			}
			if !found {
				var known []string
				for _, a := range analyzers {
					known = append(known, a.Name)
				}
				fmt.Fprintf(stderr, "tnpu-vet: -only: unknown analyzer %q (have %s)\n", name, strings.Join(known, ", "))
				return 1
			}
		}
		analyzers = selected
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := Run("", analyzers, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "tnpu-vet: %v\n", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
