// Package canoncover defines an Analyzer that proves content-addressing
// digests cover every result-affecting configuration field.
//
// Every cached simulation result — the runner's whole-run cells in the
// memo store and serve's result cache — is keyed by a digest of the
// configuration that produced it (DESIGN.md §6g). A field missing from
// that digest silently serves a stale result: two configurations that
// differ only in the forgotten field share one key. This analyzer makes
// the invariant static: a function whose doc comment carries
// //tnpu:digestcover <pkg.Type> must mention every unwaived leaf field of
// that struct (nested structs flattened; mentioning a whole sub-struct
// covers its subtree). Genuinely non-behavioral fields (display labels)
// are waived field-by-field with //tnpu:canonskip <reason> at the
// declaration; waivers live in the type's own package and travel here as
// facts — exp.ConfigDigest is checked against npu.Config without either
// package importing the other's AST.
//
// Every checked digest's leaf disposition is also exported as a
// "canoncover.certified" fact; `tnpu-vet -certify` serializes the
// harvest so a committed JSON copy can back the runtime reflection
// cross-check (belt and suspenders for builds that never run vet).
package canoncover

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"

	"tnpu/internal/analysis"
	"tnpu/internal/analysis/facts"
	"tnpu/internal/analysis/summary"
)

// WaiverMarker waives one stored field out of the coverage contract.
const WaiverMarker = "canonskip"

// DigestMarker opts a function into leaf-coverage checking against the
// struct type named in its argument.
const DigestMarker = "digestcover"

// CertFactName keys the per-type certification facts -certify harvests.
const CertFactName = "canoncover.certified"

// SkipFactName keys the per-type waived-field lists (needed by digest
// checks in other packages).
const SkipFactName = "canoncover.skipfields"

// RequiredDigests lists functions that must carry the digest marker, by
// contract package base name: the content-address of every cached
// simulation result flows through exp.ConfigDigest, so it may not
// silently lose the coverage proof.
var RequiredDigests = map[string]map[string]string{
	"exp": {"ConfigDigest": "npu.Config"},
}

// CertFact is one type's certified field disposition.
type CertFact struct {
	// Type is the fully qualified type name ("tnpu/internal/npu.Config").
	Type string `json:"type"`
	// Covered leaf paths are proven mentioned by the digest.
	Covered []string `json:"covered"`
	// Waived fields carry //tnpu:canonskip.
	Waived []string `json:"waived,omitempty"`
}

type skipFact struct {
	Fields []string `json:"fields"`
}

var Analyzer = &analysis.Analyzer{
	Name:          "canoncover",
	Doc:           "check that //tnpu:digestcover digests cover every leaf field of their target struct not waived by //tnpu:canonskip",
	Run:           run,
	UsesFacts:     true,
	DefaultWaiver: WaiverMarker,
}

func run(pass *analysis.Pass) error {
	set := summary.Compute(pass, summary.Options{})
	structs := collectStructDecls(pass)

	// Export waived-field facts for every declared struct so digest
	// checks in dependent packages see the declaration-site waivers.
	names := make([]string, 0, len(structs))
	for name := range structs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		var waived []string
		for _, field := range structs[name].Fields.List {
			if fieldWaived(pass, structs[name], field) {
				for _, id := range field.Names {
					waived = append(waived, id.Name)
				}
			}
		}
		if len(waived) > 0 {
			err := pass.Facts.Export(pass.Pkg.Path(), name, SkipFactName, skipFact{Fields: waived})
			if err != nil {
				return err
			}
		}
	}

	if err := checkDigestFuncs(pass, set); err != nil {
		return err
	}
	checkRequiredDigests(pass, set)
	return nil
}

// collectStructDecls maps declared type names to their struct AST nodes.
func collectStructDecls(pass *analysis.Pass) map[string]*ast.StructType {
	out := make(map[string]*ast.StructType)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				if ts, ok := spec.(*ast.TypeSpec); ok {
					if st, ok := ts.Type.(*ast.StructType); ok {
						out[ts.Name.Name] = st
					}
				}
			}
		}
	}
	return out
}

// fieldWaived reports whether a struct field carries a canonskip waiver:
// a trailing comment on its own line, or a dedicated comment line directly
// above. A previous field's trailing waiver does not bleed down onto the
// next field even though it sits on that field's "line above".
func fieldWaived(pass *analysis.Pass, st *ast.StructType, field *ast.Field) bool {
	if pass.WaivedSameLine(field.Pos(), WaiverMarker) {
		return true
	}
	if !pass.WaivedAt(field.Pos(), WaiverMarker) {
		return false
	}
	line := pass.Fset.Position(field.Pos()).Line
	for _, other := range st.Fields.List {
		if other != field && pass.Fset.Position(other.End()).Line == line-1 {
			return false
		}
	}
	return true
}

// checkDigestFuncs verifies every //tnpu:digestcover-marked function.
func checkDigestFuncs(pass *analysis.Pass, set *summary.Set) error {
	for _, name := range set.Names() {
		info := set.Lookup(name)
		arg, ok := analysis.DocMarkerArg(info.Decl.Doc, DigestMarker)
		if !ok {
			continue
		}
		if err := checkDigest(pass, info, arg); err != nil {
			return err
		}
	}
	return nil
}

// checkRequiredDigests reports contract functions missing the marker.
func checkRequiredDigests(pass *analysis.Pass, set *summary.Set) {
	required := RequiredDigests[analysis.PkgBase(pass.Pkg.Path())]
	fnames := make([]string, 0, len(required))
	for fname := range required {
		fnames = append(fnames, fname)
	}
	sort.Strings(fnames)
	for _, fname := range fnames {
		target := required[fname]
		info := set.Lookup(fname)
		if info == nil || analysis.IsTestFile(pass.Fset, info.Decl.Pos()) {
			continue
		}
		if _, ok := analysis.DocMarkerArg(info.Decl.Doc, DigestMarker); !ok {
			pass.Reportf(info.Decl.Pos(),
				"%s content-addresses cached results and must carry //tnpu:digestcover %s in its doc comment (DESIGN.md §7c)",
				fname, target)
		}
	}
}

// checkDigest proves one digest function mentions every unwaived leaf of
// its target struct.
func checkDigest(pass *analysis.Pass, info *summary.FuncInfo, target string) error {
	named, err := resolveNamed(pass, target)
	if err != nil {
		pass.Reportf(info.Decl.Pos(), "//tnpu:digestcover %s: %v", target, err)
		return nil
	}
	if _, isStruct := named.Underlying().(*types.Struct); !isStruct {
		pass.Reportf(info.Decl.Pos(), "//tnpu:digestcover %s: not a struct type", target)
		return nil
	}
	// The parameter(s) of the target type are the digest's roots.
	var roots []types.Object
	if info.Decl.Type.Params != nil {
		for _, field := range info.Decl.Type.Params.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if p, okP := t.(*types.Pointer); okP {
				t = p.Elem()
			}
			if n, okN := t.(*types.Named); okN && n.Obj() == named.Obj() {
				for _, id := range field.Names {
					roots = append(roots, pass.TypesInfo.Defs[id])
				}
			}
		}
	}
	if len(roots) == 0 {
		pass.Reportf(info.Decl.Pos(), "//tnpu:digestcover %s: no parameter of that type", target)
		return nil
	}
	mentioned := collectMaximalPaths(pass, info.Decl.Body, roots)
	leaves, waivedLeaves := leafPaths(pass, named, "", nil)

	cert := CertFact{Type: named.Obj().Pkg().Path() + "." + named.Obj().Name()}
	cert.Waived = waivedLeaves
	for _, leaf := range leaves {
		if pathCovered(leaf, mentioned) {
			cert.Covered = append(cert.Covered, leaf)
			continue
		}
		pass.Reportf(info.Decl.Pos(),
			"digest-unsafe: %s does not cover %s field %s; render it explicitly or waive the field with //tnpu:canonskip at its declaration",
			info.Obj.Name(), target, leaf)
	}
	sort.Strings(cert.Covered)
	sort.Strings(cert.Waived)
	return pass.Facts.Export(pass.Pkg.Path(), summary.ObjName(info.Obj), CertFactName, cert)
}

// resolveNamed turns "pkgname.Type" (or a bare same-package "Type") into
// the named type, looking pkgname up among the package's imports.
func resolveNamed(pass *analysis.Pass, target string) (*types.Named, error) {
	scope := pass.Pkg.Scope()
	typeName := target
	if i := strings.LastIndexByte(target, '.'); i >= 0 {
		pkgName, rest := target[:i], target[i+1:]
		typeName = rest
		scope = nil
		for _, imp := range pass.Pkg.Imports() {
			if imp.Name() == pkgName || analysis.PkgBase(imp.Path()) == pkgName {
				scope = imp.Scope()
				break
			}
		}
		if scope == nil {
			return nil, fmt.Errorf("package %q is not imported here", pkgName)
		}
	}
	obj := scope.Lookup(typeName)
	if obj == nil {
		return nil, fmt.Errorf("type %q not found", typeName)
	}
	named, ok := obj.Type().(*types.Named)
	if !ok {
		return nil, fmt.Errorf("%q is not a named type", typeName)
	}
	return named, nil
}

// leafPaths flattens a struct type into dotted leaf paths, honoring
// //tnpu:canonskip waivers recorded as facts by the declaring packages.
func leafPaths(pass *analysis.Pass, named *types.Named, prefix string, seen []*types.Named) (leaves, waived []string) {
	for _, s := range seen {
		if s.Obj() == named.Obj() {
			return nil, nil // recursive type: cut off
		}
	}
	seen = append(seen, named)
	st, isStruct := named.Underlying().(*types.Struct)
	if !isStruct {
		return []string{strings.TrimSuffix(prefix, ".")}, nil
	}
	var skip skipFact
	if pkg := named.Obj().Pkg(); pkg != nil {
		pass.Facts.Import(pkg.Path(), named.Obj().Name(), SkipFactName, &skip)
	}
	skipped := make(map[string]bool, len(skip.Fields))
	for _, f := range skip.Fields {
		skipped[f] = true
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		path := prefix + f.Name()
		if skipped[f.Name()] {
			waived = append(waived, path)
			continue
		}
		ft := f.Type()
		if p, isPtr := ft.(*types.Pointer); isPtr {
			ft = p.Elem()
		}
		if sub, isNamed := ft.(*types.Named); isNamed {
			if _, isStruct := sub.Underlying().(*types.Struct); isStruct {
				subLeaves, subWaived := leafPaths(pass, sub, path+".", seen)
				leaves = append(leaves, subLeaves...)
				waived = append(waived, subWaived...)
				continue
			}
		}
		leaves = append(leaves, path)
	}
	return leaves, waived
}

// collectMaximalPaths gathers the dotted field paths of every maximal
// selector chain rooted at one of the root objects. Sub-chains are not
// recorded separately: mentioning cfg.Mem.FreqHz covers exactly that
// leaf, while passing cfg.Mem somewhere covers the whole Mem subtree.
func collectMaximalPaths(pass *analysis.Pass, body *ast.BlockStmt, roots []types.Object) map[string]bool {
	isRoot := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.TypesInfo.Uses[id]
		for _, r := range roots {
			if obj == r {
				return true
			}
		}
		return false
	}
	out := make(map[string]bool)
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// Try to read the whole chain down to a root.
		var parts []string
		e := ast.Expr(sel)
		for {
			s, okSel := ast.Unparen(e).(*ast.SelectorExpr)
			if !okSel {
				break
			}
			parts = append([]string{s.Sel.Name}, parts...)
			e = s.X
		}
		if isRoot(e) && len(parts) > 0 {
			out[strings.Join(parts, ".")] = true
			return false // sub-selectors are prefixes, not separate mentions
		}
		return true
	}
	ast.Inspect(body, visit)
	return out
}

// pathCovered reports whether a leaf path is covered by any mentioned
// path: an exact mention, or a mention of one of its ancestors.
func pathCovered(leaf string, mentioned map[string]bool) bool {
	if mentioned[leaf] {
		return true
	}
	for p := leaf; ; {
		i := strings.LastIndexByte(p, '.')
		if i < 0 {
			return false
		}
		p = p[:i]
		if mentioned[p] {
			return true
		}
	}
}

// Certify renders the certification artifact from a finished run's fact
// store: every certified type's field disposition, sorted, as indented
// JSON. cmd/tnpu-vet wires this into `-certify`, and the committed copy
// backs the runtime reflection cross-check in exp.
func Certify(store *facts.Store) ([]byte, error) {
	var out []CertFact
	for _, pkg := range store.Packages(CertFactName) {
		for _, obj := range store.Objects(pkg, CertFactName) {
			var c CertFact
			if store.Import(pkg, obj, CertFactName, &c) {
				out = append(out, c)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Type < out[j].Type })
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
