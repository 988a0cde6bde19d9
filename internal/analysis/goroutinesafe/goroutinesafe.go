// Package goroutinesafe polices the per-goroutine ownership contract of
// the stateful crypto engines (DESIGN.md §7c). secmem.MACEngine reuses
// one resettable HMAC state for speed (PR 3), which makes it — and every
// structure that embeds one, like secmem.TreelessMemory and the
// integrity-tree memories — single-goroutine state: the parallel
// experiment runner and the attack campaign must clone per worker, never
// share.
//
// A type is per-goroutine when its declaration doc carries
// //tnpu:per-goroutine, or when it appears in Registry (the
// cross-package list; analyzers see only one package's syntax, so
// markers on types in other packages are mirrored there).
//
// Flagged shapes:
//
//   - a go statement whose function literal captures a per-goroutine
//     value declared outside the literal (the engine escapes into a
//     concurrent context),
//   - a struct field whose type is per-goroutine while the struct's own
//     doc carries neither //tnpu:per-goroutine (ownership propagates to
//     the holder) nor the //tnpu:sharedok field waiver (the holder
//     synchronizes access itself),
//   - a struct documented "safe for concurrent use" that nevertheless
//     holds a per-goroutine field — a doc/ownership contradiction.
package goroutinesafe

import (
	"go/ast"
	"go/types"
	"strings"

	"tnpu/internal/analysis"
)

// Marker is the doc annotation declaring per-goroutine ownership.
const Marker = "per-goroutine"

// Registry lists per-goroutine types from other packages as
// "pkgbase.TypeName". The in-tree entries mirror the //tnpu:per-goroutine
// markers on the declarations themselves.
var Registry = map[string]bool{
	"secmem.MACEngine":      true,
	"secmem.TreelessMemory": true,
	"integrity.CounterTree": true,
	"integrity.TreeMemory":  true,
	"core.Context":          true,
}

// Analyzer is the goroutinesafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "goroutinesafe",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	local := localMarked(pass)
	for _, f := range pass.Files {
		checkStructs(pass, f, local)
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, gs, local)
			return true
		})
	}
	return nil
}

// localMarked collects this package's //tnpu:per-goroutine types.
func localMarked(pass *analysis.Pass) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				doc := ts.Doc
				if doc == nil {
					doc = gd.Doc
				}
				if analysis.DocHasMarker(doc, Marker) {
					if obj := pass.TypesInfo.Defs[ts.Name]; obj != nil {
						out[obj] = true
					}
				}
			}
		}
	}
	return out
}

// perGoroutine reports whether t (possibly behind pointers) is a marked
// per-goroutine named type.
func perGoroutine(t types.Type, local map[types.Object]bool) (string, bool) {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if local[obj] {
		return obj.Name(), true
	}
	if obj.Pkg() != nil {
		q := analysis.PkgBase(obj.Pkg().Path()) + "." + obj.Name()
		if Registry[q] {
			return q, true
		}
	}
	return "", false
}

// checkStructs enforces the holder rules on struct declarations.
func checkStructs(pass *analysis.Pass, f *ast.File, local map[types.Object]bool) {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gd.Specs {
			ts, ok := spec.(*ast.TypeSpec)
			if !ok {
				continue
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				continue
			}
			doc := ts.Doc
			if doc == nil {
				doc = gd.Doc
			}
			holderMarked := analysis.DocHasMarker(doc, Marker)
			holderClaimsSafe := docClaimsConcurrencySafe(doc)
			for _, field := range st.Fields.List {
				tv, ok := pass.TypesInfo.Types[field.Type]
				if !ok || tv.Type == nil {
					continue
				}
				name, marked := perGoroutine(tv.Type, local)
				if !marked {
					continue
				}
				if holderClaimsSafe {
					pass.Reportf(field.Pos(), "%s documents itself safe for concurrent use but holds per-goroutine %s; clone per worker or fix the doc", ts.Name.Name, name)
					continue
				}
				if holderMarked || pass.WaivedAt(field.Pos(), "sharedok") {
					continue
				}
				pass.Reportf(field.Pos(), "%s holds per-goroutine %s; mark %s //tnpu:per-goroutine (ownership propagates) or annotate the field //tnpu:sharedok if access is synchronized", ts.Name.Name, name, ts.Name.Name)
			}
		}
	}
}

// checkGoStmt flags per-goroutine values captured by a goroutine's
// function literal from an enclosing scope.
func checkGoStmt(pass *analysis.Pass, gs *ast.GoStmt, local map[types.Object]bool) {
	lit, ok := gs.Call.Fun.(*ast.FuncLit)
	if !ok {
		// `go eng.Method()` evaluates the receiver here, then runs the
		// method concurrently: the same escape.
		if sel, ok := gs.Call.Fun.(*ast.SelectorExpr); ok {
			if tv, ok := pass.TypesInfo.Types[sel.X]; ok && tv.Type != nil {
				if name, marked := perGoroutine(tv.Type, local); marked && !pass.WaivedAt(gs.Pos(), "sharedok") {
					pass.Reportf(gs.Pos(), "per-goroutine %s used as receiver of a go statement; clone one per goroutine or annotate //tnpu:sharedok", name)
				}
			}
		}
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		name, marked := perGoroutine(v.Type(), local)
		if !marked {
			return true
		}
		// Captured only when declared outside the literal.
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true
		}
		if pass.WaivedAt(id.Pos(), "sharedok") || pass.WaivedAt(gs.Pos(), "sharedok") {
			return true
		}
		pass.Reportf(id.Pos(), "per-goroutine %s (%s) captured by a goroutine; construct one inside the goroutine or clone per worker (//tnpu:sharedok to waive)", name, id.Name)
		return true
	})
}

// docClaimsConcurrencySafe detects the documentation idiom promising
// concurrent safety ("safe for concurrent use").
func docClaimsConcurrencySafe(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	return strings.Contains(strings.ToLower(doc.Text()), "safe for concurrent use")
}
