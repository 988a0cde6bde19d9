// Package load turns Go package patterns into parsed, type-checked
// packages using only the go toolchain and the standard library: a
// `go list -deps -export -test -json` invocation supplies the file sets
// and compiler export data, go/parser supplies syntax, and go/types with
// an importer.ForCompiler lookup over the export files supplies types. It
// is the engine behind both cmd/tnpu-vet and the analysistest harness
// (x/tools' go/packages is not available to this stdlib-only module).
//
// Only packages matching the patterns, with their test variants, are
// parsed and type-checked; every dependency, in-module or standard
// library, contributes export data only, since no analyzer looks past the
// package it runs on. One Load call serves every analyzer in a run, and
// each call parses into a FileSet of its own.
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
)

// Package is one parsed and type-checked package ready for analysis.
type Package struct {
	// ImportPath is the go list package ID; test variants carry the
	// " [pkg.test]" suffix go list gives them.
	ImportPath string
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
	Error      *struct{ Err string }
}

// Load lists, parses, and type-checks the packages matching patterns and
// their test variants, against the export data `go list -deps -export`
// builds for their dependency closure. dir is the working directory for
// go list (the module being analyzed); empty means the current directory.
func Load(dir string, patterns ...string) ([]*Package, error) {
	args := append([]string{"list", "-e", "-deps", "-export", "-json", "-test"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
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

	fset := token.NewFileSet()
	var pkgs []*Package
	for _, p := range listed {
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			return nil, fmt.Errorf("load: %s uses cgo, which this loader does not support", p.ImportPath)
		}
		pkg, err := check(fset, p, exports)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// check parses and type-checks one listed package against the export
// data of its dependency closure. The package's ImportMap translates
// source import paths to canonical package IDs; exports maps canonical
// IDs to compiler export files.
func check(fset *token.FileSet, p *listPackage, exports map[string]string) (*Package, error) {
	var files []*ast.File
	for _, f := range p.GoFiles {
		path := f
		if !strings.HasPrefix(path, "/") && p.Dir != "" {
			path = p.Dir + "/" + f
		}
		parsed, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", path, err)
		}
		files = append(files, parsed)
	}
	lookup := func(imp string) (io.ReadCloser, error) {
		if mapped, ok := p.ImportMap[imp]; ok && mapped != "" {
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
	typePath := p.ImportPath
	if i := strings.IndexByte(typePath, ' '); i >= 0 {
		typePath = typePath[:i]
	}
	pkg, err := conf.Check(typePath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %v", p.ImportPath, err)
	}
	return &Package{
		ImportPath: p.ImportPath,
		Fset:       fset,
		Syntax:     files,
		Types:      pkg,
		TypesInfo:  info,
		ForTest:    p.ForTest,
	}, nil
}
