// Package load turns Go package patterns into parsed, type-checked
// packages using only the go toolchain and the standard library: a
// `go list -deps -export -json` invocation supplies the file sets and
// compiler export data, go/parser supplies syntax, and go/types with an
// importer.ForCompiler lookup over the export files supplies types. It
// is the engine behind both the standalone tnpu-vet driver and the
// analysistest harness (x/tools' go/packages is not available to this
// stdlib-only module).
//
// Only packages matching the patterns are parsed and type-checked; every
// dependency, in-module or standard library, contributes export data
// only, since no analyzer looks past the package it runs on.
//
// One Load call serves every analyzer in a run: packages are listed,
// parsed, and type-checked exactly once, and a process-wide parse cache
// (keyed by path+mtime+size over a shared FileSet) additionally
// deduplicates the re-parse of non-test sources that `go list -test`
// triggers for each "pkg [pkg.test]" variant.
package load

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"strings"
	"sync"
	"time"
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// ImportPath is the go list package ID; test variants carry the
	// " [pkg.test]" suffix go list gives them.
	ImportPath string
	Dir        string
	GoFiles    []string
	Fset       *token.FileSet
	Syntax     []*ast.File
	Types      *types.Package
	TypesInfo  *types.Info

	// ForTest is the import path of the package under test when this is
	// a test variant ("a [a.test]" or "a_test [a.test]"), else "".
	ForTest string
}

// listPackage mirrors the subset of `go list -json` output the loader
// consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	CgoFiles   []string
	ImportMap  map[string]string
	DepOnly    bool
	ForTest    string
	Incomplete bool
	Error      *struct{ Err string }
}

// Config parameterizes a Load call.
type Config struct {
	// Dir is the working directory for the go list invocation (the
	// module being analyzed). Empty means the current directory.
	Dir string
	// Tests includes _test.go files by listing test variants too.
	Tests bool
	// Env overrides the environment for go list (nil keeps os.Environ).
	Env []string
}

// Load lists, parses, and type-checks the packages matching patterns,
// against the export data `go list -deps -export` builds for their
// dependency closure.
func Load(cfg Config, patterns ...string) ([]*Package, error) {
	args := []string{"list", "-e", "-deps", "-export", "-json"}
	if cfg.Tests {
		args = append(args, "-test")
	}
	args = append(args, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = cfg.Dir
	cmd.Env = cfg.Env
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}

	var listed []*listPackage
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		p := new(listPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Name == "" {
			continue
		}
		// Dependencies are consumed as export data; synthesized test
		// mains ("pkg.test") carry no contracts of ours.
		if p.DepOnly || strings.HasSuffix(p.ImportPath, ".test") {
			continue
		}
		listed = append(listed, p)
	}

	var pkgs []*Package
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: %s uses cgo, which this loader does not support", p.ImportPath)
		}
		pkg, err := check(p, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// Every Load shares one FileSet so cached ASTs stay position-valid
// across calls; cache entries are invalidated by mtime+size so edited
// files re-parse. Parse errors are cached too (the file will not parse
// differently until it changes).
var (
	parseMu    sync.Mutex
	sharedFset = token.NewFileSet()
	parseCache = make(map[string]*parseEntry)
)

type parseEntry struct {
	mtime time.Time
	size  int64
	file  *ast.File
	err   error
}

func parseCached(path string) (*ast.File, error) {
	fi, statErr := os.Stat(path)
	parseMu.Lock()
	defer parseMu.Unlock()
	if e, ok := parseCache[path]; ok && statErr == nil &&
		e.mtime.Equal(fi.ModTime()) && e.size == fi.Size() {
		return e.file, e.err
	}
	file, err := parser.ParseFile(sharedFset, path, nil, parser.ParseComments)
	if statErr == nil {
		parseCache[path] = &parseEntry{mtime: fi.ModTime(), size: fi.Size(), file: file, err: err}
	}
	return file, err
}

// check parses and type-checks one listed package against the export
// data of its dependency closure.
func check(p *listPackage, exports map[string]string) (*Package, error) {
	var files []*ast.File
	var names []string
	for _, f := range p.GoFiles {
		path := f
		if !strings.HasPrefix(path, "/") && p.Dir != "" {
			path = p.Dir + "/" + f
		}
		parsed, err := parseCached(path)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, parsed)
		names = append(names, path)
	}
	pkg, info, err := Check(p.ImportPath, sharedFset, files, p.ImportMap, exports)
	if err != nil {
		return nil, err
	}
	return &Package{
		ImportPath: p.ImportPath,
		Dir:        p.Dir,
		GoFiles:    names,
		Fset:       sharedFset,
		Syntax:     files,
		Types:      pkg,
		TypesInfo:  info,
		ForTest:    p.ForTest,
	}, nil
}

// Check type-checks already-parsed files against dependency export data.
// importMap translates source import paths to canonical package IDs (go
// list's ImportMap / vet.cfg's ImportMap); exports maps canonical IDs to
// compiler export files. It is shared by Load and the vettool's
// unitchecker mode.
func Check(path string, fset *token.FileSet, files []*ast.File, importMap, exports map[string]string) (*types.Package, *types.Info, error) {
	lookup := func(imp string) (io.ReadCloser, error) {
		if mapped, ok := importMap[imp]; ok && mapped != "" {
			imp = mapped
		}
		exp, ok := exports[imp]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", imp)
		}
		return os.Open(exp)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", "amd64"),
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	// The ID of a test variant ("a [a.test]") is not a valid types
	// package path; strip the suffix for type identity.
	typePath := path
	if i := strings.IndexByte(typePath, ' '); i >= 0 {
		typePath = typePath[:i]
	}
	pkg, err := conf.Check(typePath, fset, files, info)
	if err != nil {
		return nil, nil, fmt.Errorf("typecheck %s: %v", path, err)
	}
	return pkg, info, nil
}
