// Package checker drives analysis.Analyzers in the two modes cmd/tnpu-vet
// supports:
//
//   - Standalone: load packages by pattern through internal/analysis/load
//     and run every analyzer over each (Run / RunPatterns) —
//     `tnpu-vet ./...`. One load serves the whole analyzer suite.
//   - Vet tool: speak cmd/go's vet.cfg protocol (RunVetCfg) so the same
//     binary plugs into `go vet -vettool=$(which tnpu-vet)`. cmd/go hands
//     the tool a JSON config per package naming the source files and the
//     export data of the dependency closure; it expects diagnostics on
//     stderr with a non-zero exit and requires the VetxOutput facts file
//     to be written. Every analyzer is intra-package, so that file is
//     always empty and dependency-only (VetxOnly) invocations do nothing.
//
// In both modes a package's test variant ("pkg [pkg.test]") re-lists the
// non-test sources, so diagnostics from variants are filtered to
// _test.go files to keep every finding single-shot.
package checker

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"tnpu/internal/analysis"
	"tnpu/internal/analysis/load"
)

// Diagnostic is one rendered finding.
type Diagnostic struct {
	Position token.Position
	Analyzer string
	Message  string

	// Waiver names the //tnpu:<marker> that would suppress this finding
	// (the analyzer's default waiver).
	Waiver string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// Result carries everything a full standalone run produced.
type Result struct {
	Diagnostics []Diagnostic
	// LoadTime is the wall time of listing, parsing, and type-checking —
	// paid once for the whole suite.
	LoadTime time.Duration
	// AnalyzerTime is cumulative wall time per analyzer across packages.
	AnalyzerTime map[string]time.Duration
}

// runPackage applies analyzers to one loaded package. testOnly restricts
// reported findings to _test.go files (set for test variants whose
// non-test files were already analyzed as the base package). times, when
// non-nil, accumulates per-analyzer wall time.
func runPackage(pkg *load.Package, analyzers []*analysis.Analyzer, testOnly bool, times map[string]time.Duration) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Syntax,
			Pkg:       pkg.Types,
			TypesInfo: pkg.TypesInfo,
		}
		name, waiver := a.Name, a.DefaultWaiver
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if testOnly && !strings.HasSuffix(pos.Filename, "_test.go") {
				return
			}
			out = append(out, Diagnostic{Position: pos, Analyzer: name, Message: d.Message, Waiver: waiver})
		}
		start := time.Now()
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", pkg.ImportPath, a.Name, err)
		}
		if times != nil {
			times[a.Name] += time.Since(start)
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
// every package, and returns diagnostics (deterministically ordered) and
// timing.
func Run(dir string, analyzers []*analysis.Analyzer, patterns ...string) (*Result, error) {
	start := time.Now()
	pkgs, err := load.Load(load.Config{Dir: dir, Tests: true}, patterns...)
	if err != nil {
		return nil, err
	}
	res := &Result{
		LoadTime:     time.Since(start),
		AnalyzerTime: make(map[string]time.Duration),
	}
	for _, pkg := range pkgs {
		ds, err := runPackage(pkg, analyzers, isTestVariant(pkg), res.AnalyzerTime)
		if err != nil {
			return nil, err
		}
		res.Diagnostics = append(res.Diagnostics, ds...)
	}
	return res, nil
}

// RunPatterns is the diagnostics-only form of Run, kept for callers that
// need no timing (the analysistest harness).
func RunPatterns(dir string, analyzers []*analysis.Analyzer, patterns ...string) ([]Diagnostic, error) {
	res, err := Run(dir, analyzers, patterns...)
	if err != nil {
		return nil, err
	}
	return res.Diagnostics, nil
}

// vetConfig mirrors cmd/go's internal vetConfig (the vet.cfg JSON payload
// handed to -vettool binaries); unused fields are omitted.
type vetConfig struct {
	ID          string
	Compiler    string
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	VetxOnly    bool
	VetxOutput  string

	SucceedOnTypecheckFailure bool
}

// RunVetCfg implements the vet-tool side of the protocol for one vet.cfg
// file. It returns the diagnostics to print and the process exit code.
func RunVetCfg(cfgPath string, analyzers []*analysis.Analyzer) ([]Diagnostic, int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, 1, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return nil, 1, fmt.Errorf("parse %s: %v", cfgPath, err)
	}
	// cmd/go caches the vetx output file and requires it to exist; no
	// analyzer keeps cross-package facts, so it is always empty, and a
	// dependency-only invocation has nothing else to do.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, 1, err
		}
	}
	if cfg.VetxOnly {
		return nil, 0, nil
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, f := range cfg.GoFiles {
		parsed, err := parser.ParseFile(fset, f, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, 0, nil
			}
			return nil, 1, err
		}
		files = append(files, parsed)
	}
	typesPkg, info, err := load.Check(cfg.ImportPath, fset, files, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, 0, nil
		}
		return nil, 1, err
	}
	pkg := &load.Package{
		ImportPath: cfg.ID,
		Dir:        cfg.Dir,
		GoFiles:    cfg.GoFiles,
		Fset:       fset,
		Syntax:     files,
		Types:      typesPkg,
		TypesInfo:  info,
	}
	// cmd/go vets both "pkg" and "pkg [pkg.test]"; report test-file
	// findings only from the variant.
	testOnly := strings.Contains(cfg.ID, " [") && !strings.HasSuffix(typesPkg.Name(), "_test")
	ds, err := runPackage(pkg, analyzers, testOnly, nil)
	if err != nil {
		return nil, 1, err
	}
	if len(ds) > 0 {
		return ds, 2, nil
	}
	return nil, 0, nil
}

// jsonDiagnostic is the -json wire form of one finding.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
	Waiver   string `json:"waiver,omitempty"`
}

const usage = "usage: tnpu-vet [-json] [-v] [-only a1,a2] [packages] | tnpu-vet <vet.cfg>"

// Main is the shared entry point of cmd/tnpu-vet: it dispatches between
// the cmd/go handshakes (-flags, -V=full), vet.cfg mode, and the
// standalone pattern mode. Protocol responses go to stdout (where cmd/go
// reads them), diagnostics to stderr (or stdout for -json), and the
// return value is the process exit code.
func Main(stdout, stderr io.Writer, args []string, analyzers []*analysis.Analyzer) int {
	if len(args) == 1 && args[0] == "-flags" {
		// `go vet -vettool` first asks the tool to describe its flags as
		// a JSON array on stdout; the vet-tool protocol side takes none
		// (-json and friends are standalone-only).
		fmt.Fprintln(stdout, "[]")
		return 0
	}
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		// cmd/go identifies tools by `-V=full`; any stable single line
		// of the form "<name> version <stuff>" serves.
		fmt.Fprintln(stdout, "tnpu-vet version v1 (stdlib go/analysis suite)")
		return 0
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		ds, code, err := RunVetCfg(args[0], analyzers)
		if err != nil {
			fmt.Fprintf(stderr, "tnpu-vet: %v\n", err)
			return 1
		}
		for _, d := range ds {
			fmt.Fprintf(stderr, "%s: %s\n", d.Position, d.Message)
		}
		return code
	}

	var (
		jsonOut  bool
		verbose  bool
		only     string
		patterns []string
	)
	for i := 0; i < len(args); i++ {
		arg := args[i]
		switch {
		case arg == "-json":
			jsonOut = true
		case arg == "-v":
			verbose = true
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
	res, err := Run("", analyzers, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "tnpu-vet: %v\n", err)
		return 1
	}
	if verbose {
		fmt.Fprintf(stderr, "tnpu-vet: load+typecheck %v\n", res.LoadTime.Round(time.Millisecond))
		names := make([]string, 0, len(res.AnalyzerTime))
		for name := range res.AnalyzerTime {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			fmt.Fprintf(stderr, "tnpu-vet: %-14s %v\n", name, res.AnalyzerTime[name].Round(time.Millisecond))
		}
	}
	if jsonOut {
		out := make([]jsonDiagnostic, 0, len(res.Diagnostics))
		for _, d := range res.Diagnostics {
			out = append(out, jsonDiagnostic{
				File:     d.Position.Filename,
				Line:     d.Position.Line,
				Col:      d.Position.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
				Waiver:   d.Waiver,
			})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "tnpu-vet: %v\n", err)
			return 1
		}
	} else {
		for _, d := range res.Diagnostics {
			fmt.Fprintf(stderr, "%s: %s: %s\n", d.Position, d.Analyzer, d.Message)
		}
	}
	if len(res.Diagnostics) > 0 {
		return 2
	}
	return 0
}
