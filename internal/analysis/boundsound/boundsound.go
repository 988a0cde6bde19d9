// Package boundsound defines an Analyzer that keeps every closed-form
// fast path anchored to the per-block reference.
//
// The batched run service (memprot.RunEngine.ReadRun/WriteRun), which
// also serves the multi-NPU horizon arbitration, rests on one
// discipline: a scheme may serve a run with closed-form arithmetic only
// while a guard predicate proves the closed form applies, and must
// otherwise fall back to the per-block reference path whose every cycle
// is simulated. A new scheme that ships an
// unguarded closed form silently diverges from the reference — the
// differential fuzzers would eventually catch it, but only per seed.
// This analyzer enforces the shape statically, in two rules:
//
//  1. Fallback reachability: each ReadRun/WriteRun method of a type
//     that has both must transitively reach (through same-package
//     static calls) the per-block reference — a function named
//     runPerBlock, a //tnpu:reference-marked helper, or the type's own
//     ReadBlock/WriteBlock — or carry a //tnpu:exactform <reason> doc
//     waiver asserting the closed form is exact by construction (the
//     unsecure/encrypt-only stream forms, pinned by differential tests).
//
//  2. Guarded fast paths: every call to a //tnpu:fastpath-marked
//     function must sit under an if-condition that invokes a
//     //tnpu:guard-marked predicate, directly or through a local
//     variable derived from one (the `inStreak := ... && BeginRun(...)`
//     idiom). Markers cross packages as facts, so dram.Bus.BeginRun
//     guards memprot's streak bodies. //tnpu:guardok waives one site.
package boundsound

import (
	"go/ast"
	"go/types"
	"sort"

	"tnpu/internal/analysis"
	"tnpu/internal/analysis/summary"
)

// Markers.
const (
	FastpathMarker  = "fastpath"  // doc: closed-form body needing a guard at call sites
	GuardMarker     = "guard"     // doc: predicate licensing a fast path
	ReferenceMarker = "reference" // doc: per-block reference fallback
	ExactWaiver     = "exactform" // doc: closed form exact by construction
	SiteWaiver      = "guardok"   // site: waives one unguarded call
)

// Fact names (value is always true; presence is the signal).
const (
	FastpathFact = "boundsound.fastpath"
	GuardFact    = "boundsound.guard"
)

var Analyzer = &analysis.Analyzer{
	Name:          "boundsound",
	Doc:           "check that closed-form run fast paths are guarded by //tnpu:guard predicates and that ReadRun/WriteRun retain a reachable per-block reference fallback",
	Run:           run,
	UsesFacts:     true,
	DefaultWaiver: SiteWaiver,
}

func run(pass *analysis.Pass) error {
	set := summary.Compute(pass, summary.Options{})

	// Index this package's markers and re-export them as facts for
	// dependents (dram's BeginRun guards memprot's streak bodies).
	fastpath := make(map[*types.Func]bool)
	guard := make(map[*types.Func]bool)
	for _, name := range set.Names() {
		info := set.Lookup(name)
		if analysis.DocHasMarker(info.Decl.Doc, FastpathMarker) {
			fastpath[info.Obj] = true
			if err := pass.Facts.Export(pass.Pkg.Path(), name, FastpathFact, true); err != nil {
				return err
			}
		}
		if analysis.DocHasMarker(info.Decl.Doc, GuardMarker) {
			guard[info.Obj] = true
			if err := pass.Facts.Export(pass.Pkg.Path(), name, GuardFact, true); err != nil {
				return err
			}
		}
	}
	isMarked := func(fn *types.Func, local map[*types.Func]bool, fact string) bool {
		if fn == nil {
			return false
		}
		if local[fn] {
			return true
		}
		pkg := fn.Pkg()
		return pkg != nil && pass.Facts.Has(pkg.Path(), summary.ObjName(fn), fact)
	}

	checkFallback(pass, set)

	for _, name := range set.Names() {
		info := set.Lookup(name)
		checkGuards(pass, info,
			func(fn *types.Func) bool { return isMarked(fn, fastpath, FastpathFact) },
			func(fn *types.Func) bool { return isMarked(fn, guard, GuardFact) })
	}
	return nil
}

// checkFallback enforces rule 1 over every RunEngine-shaped type.
func checkFallback(pass *analysis.Pass, set *summary.Set) {
	// Group methods by receiver type name.
	types_ := make(map[string]bool)
	for _, name := range set.Names() {
		info := set.Lookup(name)
		if info.RecvNamed != nil {
			types_[info.RecvNamed.Obj().Name()] = true
		}
	}
	var typeNames []string
	for t := range types_ {
		typeNames = append(typeNames, t)
	}
	sort.Strings(typeNames)
	for _, t := range typeNames {
		read := set.Lookup(t + ".ReadRun")
		write := set.Lookup(t + ".WriteRun")
		if read == nil || write == nil {
			continue
		}
		for _, m := range []struct {
			info  *summary.FuncInfo
			block string
		}{{read, "ReadBlock"}, {write, "WriteBlock"}} {
			if analysis.DocHasMarker(m.info.Decl.Doc, ExactWaiver) {
				continue
			}
			if reachesReference(set, m.info, t, m.block) {
				continue
			}
			pass.Reportf(m.info.Decl.Pos(),
				"unsound fast path: %s.%s reaches no per-block reference (runPerBlock, %s.%s, or a //tnpu:reference helper); add a fallback branch or waive with //tnpu:exactform <reason> if the closed form is exact",
				t, m.info.Obj.Name(), t, m.block)
		}
	}
}

// reachesReference walks the same-package static call graph from start,
// looking for the per-block reference.
func reachesReference(set *summary.Set, start *summary.FuncInfo, typeName, blockMethod string) bool {
	seen := make(map[*types.Func]bool)
	queue := []*summary.FuncInfo{start}
	for len(queue) > 0 {
		info := queue[0]
		queue = queue[1:]
		for _, call := range info.Calls {
			if call.Callee == nil || seen[call.Callee] {
				continue
			}
			seen[call.Callee] = true
			name := summary.ObjName(call.Callee)
			if call.Callee.Name() == "runPerBlock" || name == typeName+"."+blockMethod {
				return true
			}
			callee, ok := set.Funcs[call.Callee]
			if !ok {
				continue
			}
			if analysis.DocHasMarker(callee.Decl.Doc, ReferenceMarker) {
				return true
			}
			queue = append(queue, callee)
		}
	}
	return false
}

// checkGuards enforces rule 2 inside one function body: every call to a
// fast-path function must be dominated by an if-condition derived from a
// guard predicate.
func checkGuards(pass *analysis.Pass, info *summary.FuncInfo, isFastpath, isGuard func(*types.Func) bool) {
	body := info.Decl.Body

	// condHasGuard reports whether an expression invokes a guard
	// predicate or mentions a guard-derived local.
	guardDerived := collectGuardDerived(pass, body, isGuard)
	exprGuarded := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if fn := staticCallee(pass, x); isGuard(fn) {
					found = true
					return false
				}
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[x]; obj != nil && guardDerived[obj] {
					found = true
					return false
				}
			}
			return !found
		})
		return found
	}

	// Walk with an explicit ancestor stack so each fast-path call can
	// look up its enclosing if-statements.
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if fn := staticCallee(pass, call); isFastpath(fn) {
				guarded := false
				for i := len(stack) - 1; i >= 0 && !guarded; i-- {
					ifStmt, isIf := stack[i].(*ast.IfStmt)
					if !isIf {
						continue
					}
					// The call must be in the body, not the condition
					// itself (a guard's argument is not guarded by it).
					if within(ifStmt.Cond, call) {
						continue
					}
					if exprGuarded(ifStmt.Cond) {
						guarded = true
					}
				}
				if !guarded && !pass.WaivedAt(call.Pos(), SiteWaiver) {
					pass.Reportf(call.Pos(),
						"unsound fast path: call to //tnpu:fastpath %s is not under an if-condition derived from a //tnpu:guard predicate; guard it or waive with //tnpu:guardok <reason>",
						summary.ObjName(fn))
				}
			}
		}
		stack = append(stack, n)
		return true
	}
	ast.Inspect(body, visit)
}

// collectGuardDerived finds locals whose value is derived from a guard
// call: v := ... guard(...) ..., transitively through other derived
// locals, to a fixpoint.
func collectGuardDerived(pass *analysis.Pass, body *ast.BlockStmt, isGuard func(*types.Func) bool) map[types.Object]bool {
	derived := make(map[types.Object]bool)
	mentions := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if isGuard(staticCallee(pass, x)) {
					found = true
				}
			case *ast.Ident:
				if obj := pass.TypesInfo.Uses[x]; obj != nil && derived[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, okID := ast.Unparen(lhs).(*ast.Ident)
				if !okID {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj == nil || derived[obj] {
					continue
				}
				if mentions(as.Rhs[i]) {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}
	return derived
}

// staticCallee resolves a call's static target, nil for dynamic calls.
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		if sel := pass.TypesInfo.Selections[fun]; sel != nil && sel.Kind() == types.MethodVal {
			fn, _ := sel.Obj().(*types.Func)
			return fn
		}
		fn, _ := pass.TypesInfo.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// within reports whether needle lies inside hay's extent.
func within(hay ast.Node, needle ast.Node) bool {
	return hay.Pos() <= needle.Pos() && needle.End() <= hay.End()
}
