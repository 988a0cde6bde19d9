// Package purity defines an Analyzer that proves //tnpu:pure functions
// free of side effects, interprocedurally.
//
// The streak guards (batchSafe, overflowPending, macLineCount) are
// consulted on the batching hot path under the assumption that asking is
// free: a guard that mutated engine state would make `plan then decide`
// diverge from `decide by simulating`, the exact bug class the
// differential fuzzers hunt. The contract is opt-in via a //tnpu:pure
// doc marker and checked against the summary fixpoint of
// internal/analysis/summary: a pure function may mutate nothing
// reachable from its receiver, parameters, or package state, and may
// only call functions that are
// themselves provably pure (same-package by summary, cross-package by
// an exported //tnpu:pure fact, plus a tiny read-only stdlib whitelist).
//
// Escapes: //tnpu:pureok on the offending line waives one witness
// (documented false positives, e.g. mutation of a frame-owned buffer
// through an impure-looking callee); //tnpu:scratch on a receiver field
// declaration exempts writes through that field (declared scratch
// space). Verified pure functions are exported as facts so dependent
// packages can call them from their own pure code.
package purity

import (
	"go/ast"
	"go/token"
	"go/types"

	"tnpu/internal/analysis"
	"tnpu/internal/analysis/summary"
)

// Marker is the doc-comment opt-in annotation.
const Marker = "pure"

// WaiverMarker waives one impurity witness at its site.
const WaiverMarker = "pureok"

// ScratchMarker on a field declaration exempts writes through the field.
const ScratchMarker = "scratch"

// FactName keys the cross-package purity facts.
const FactName = "purity.pure"

// pureFact marks one function proven side-effect free.
type pureFact struct {
	Pure bool `json:"pure"`
}

var Analyzer = &analysis.Analyzer{
	Name:          "purity",
	Doc:           "check that //tnpu:pure functions mutate nothing reachable from their receiver, parameters, or package state",
	Run:           run,
	UsesFacts:     true,
	DefaultWaiver: WaiverMarker,
}

func run(pass *analysis.Pass) error {
	scratch := collectScratchFields(pass)
	set := summary.Compute(pass, summary.Options{
		CalleePure: func(fn *types.Func) summary.Purity {
			pkg := fn.Pkg()
			if pkg == nil {
				return summary.Unknown
			}
			var f pureFact
			if pass.Facts.Import(pkg.Path(), summary.ObjName(fn), FactName, &f) && f.Pure {
				return summary.Pure
			}
			return summary.Unknown
		},
		WaiverOK: func(pos token.Pos) bool {
			return pass.WaivedAt(pos, WaiverMarker)
		},
		ScratchField: func(typeName, fieldName string) bool {
			return scratch[typeName][fieldName]
		},
	})

	for _, name := range set.Names() {
		info := set.Lookup(name)
		if !analysis.DocHasMarker(info.Decl.Doc, Marker) {
			continue
		}
		if !info.Pure {
			pass.Reportf(info.ImpurePos,
				"%s is annotated //tnpu:pure but %s; remove the side effect or waive this line with //tnpu:pureok <reason>",
				name, info.ImpureWhat)
			continue
		}
		// Proven: export so dependents' pure code may call it.
		if err := pass.Facts.Export(pass.Pkg.Path(), name, FactName, pureFact{Pure: true}); err != nil {
			return err
		}
	}
	return nil
}

func collectScratchFields(pass *analysis.Pass) map[string]map[string]bool {
	out := make(map[string]map[string]bool)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
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
				for _, field := range st.Fields.List {
					if !pass.WaivedAt(field.Pos(), ScratchMarker) {
						continue
					}
					m := out[ts.Name.Name]
					if m == nil {
						m = make(map[string]bool)
						out[ts.Name.Name] = m
					}
					for _, name := range field.Names {
						m[name.Name] = true
					}
				}
			}
		}
	}
	return out
}
