// Package summary computes lightweight per-function summaries over one
// type-checked package: which functions it calls, and whether it is pure
// (mutates nothing reachable from its receiver, parameters, or package
// state). The three interprocedural analyzers (canoncover, purity,
// boundsound) all build on the same summaries — canoncover finds the
// digest functions by name, purity runs a worklist fixpoint over the
// intra-package call graph and consults cross-package facts at the
// boundary, boundsound walks the call edges for fallback reachability.
//
// The purity model is a conservative taint analysis, not an alias
// analysis: a local variable is "owned" only while every value flowing
// into it is a fresh allocation (make/new/pointer-free literal); writes
// that dereference anything else — receiver, parameter, global, call
// result, tainted local — count as side effects. Calls to callees whose
// purity cannot be established (dynamic calls, unmarked cross-package
// functions) are impure by default. False positives are waived at the
// site with //tnpu:pureok, never by weakening the model.
package summary

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"tnpu/internal/analysis"
)

// Purity is a three-valued purity verdict for cross-package callees.
type Purity int

const (
	Unknown Purity = iota
	Pure
	Impure
)

// CallSite is one resolved static call edge.
type CallSite struct {
	Callee *types.Func
	Pos    token.Pos
}

// FuncInfo is the summary of one function or method declaration.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Obj  *types.Func
	// RecvNamed is the receiver's named type (pointer stripped), nil for
	// plain functions.
	RecvNamed *types.Named
	Calls     []CallSite

	// Pure is the fixpoint purity verdict; when false, ImpurePos and
	// ImpureWhat hold the first witness (a mutation in this body, or the
	// call that reached an impure callee).
	Pure       bool
	ImpurePos  token.Pos
	ImpureWhat string
}

// Options parameterizes a Compute call.
type Options struct {
	// CalleePure resolves the purity of a callee declared outside the
	// package (typically from //tnpu:pure facts). Nil means Unknown.
	CalleePure func(fn *types.Func) Purity
	// WaiverOK reports whether an impurity witness at pos is waived
	// (//tnpu:pureok); waived sites do not poison the summary.
	WaiverOK func(pos token.Pos) bool
	// ScratchField reports whether writes to the named field of the
	// named receiver type are declared scratch (//tnpu:scratch) and
	// therefore exempt from the purity contract.
	ScratchField func(typeName, fieldName string) bool
}

// Set holds the summaries of one package.
type Set struct {
	Funcs  map[*types.Func]*FuncInfo
	byName map[string]*FuncInfo
}

// ObjName renders a *types.Func the way facts keys and Set.Lookup expect:
// "Func" for package-level functions, "Type.Method" for methods (pointer
// receivers stripped).
func ObjName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// Lookup finds a summary by ObjName form.
func (s *Set) Lookup(name string) *FuncInfo { return s.byName[name] }

// Names returns every summarized function name, sorted, for
// deterministic iteration.
func (s *Set) Names() []string {
	out := make([]string, 0, len(s.byName))
	for name := range s.byName {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Compute builds summaries for every function declared in the package
// and closes purity over the intra-package call graph.
func Compute(pass *analysis.Pass, opt Options) *Set {
	s := &Set{
		Funcs:  make(map[*types.Func]*FuncInfo),
		byName: make(map[string]*FuncInfo),
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			info := summarize(pass, opt, fd, obj)
			s.Funcs[obj] = info
			s.byName[ObjName(obj)] = info
		}
	}

	// Purity fixpoint: impurity propagates along intra-package call
	// edges; cross-package callees resolve through opt.CalleePure
	// (their verdicts are fixed by facts). Iteration is by sorted name
	// so the first recorded witness is deterministic.
	for changed := true; changed; {
		changed = false
		for _, name := range s.Names() {
			info := s.byName[name]
			if !info.Pure {
				continue
			}
			for _, call := range info.Calls {
				verdict, what := s.calleeVerdict(pass, opt, call)
				if verdict == Pure {
					continue
				}
				if opt.WaiverOK != nil && opt.WaiverOK(call.Pos) {
					continue
				}
				info.Pure = false
				info.ImpurePos = call.Pos
				info.ImpureWhat = what
				changed = true
				break
			}
		}
	}
	return s
}

// calleeVerdict resolves one call edge's purity: same-package callees by
// summary, cross-package ones by facts/whitelist, unresolvable ones as
// Unknown.
func (s *Set) calleeVerdict(pass *analysis.Pass, opt Options, call CallSite) (Purity, string) {
	if call.Callee == nil {
		return Unknown, "calls through a dynamic target (interface or function value)"
	}
	if callee, ok := s.Funcs[call.Callee]; ok {
		if callee.Pure {
			return Pure, ""
		}
		return Impure, fmt.Sprintf("calls %s, which is impure (%s at %s)",
			ObjName(call.Callee), callee.ImpureWhat, pass.Fset.Position(callee.ImpurePos))
	}
	if p := stdlibPurity(call.Callee); p != Unknown {
		if p == Pure {
			return Pure, ""
		}
		return Impure, fmt.Sprintf("calls impure %s", ObjName(call.Callee))
	}
	if opt.CalleePure != nil {
		if p := opt.CalleePure(call.Callee); p != Unknown {
			if p == Pure {
				return Pure, ""
			}
			return Impure, fmt.Sprintf("calls %s, declared impure", ObjName(call.Callee))
		}
	}
	return Unknown, fmt.Sprintf("calls %s, whose purity is unknown (no //tnpu:pure fact)", ObjName(call.Callee))
}

// stdlibPurity whitelists the few standard-library helpers the tree's
// pure functions legitimately reach (all read-only over their
// arguments). Everything else in the standard library is Unknown.
func stdlibPurity(fn *types.Func) Purity {
	pkg := fn.Pkg()
	if pkg == nil {
		return Unknown
	}
	switch pkg.Path() + "." + fn.Name() {
	case "fmt.Sprintf", "fmt.Errorf", "errors.New", "strconv.Itoa",
		"strconv.FormatInt", "strconv.FormatUint", "strings.Contains",
		"strings.HasPrefix", "strings.HasSuffix":
		return Pure
	}
	return Unknown
}

// summarize walks one function body.
func summarize(pass *analysis.Pass, opt Options, fd *ast.FuncDecl, obj *types.Func) *FuncInfo {
	info := &FuncInfo{
		Decl: fd,
		Obj:  obj,
		Pure: true,
	}
	w := &walker{pass: pass, opt: opt, info: info}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := pass.TypesInfo.TypeOf(fd.Recv.List[0].Type)
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			info.RecvNamed = n
		}
		if names := fd.Recv.List[0].Names; len(names) == 1 {
			w.recvObj = pass.TypesInfo.Defs[names[0]]
		}
	}
	w.collectOwnership(fd.Body)
	w.walk(fd.Body)
	return info
}

// walker accumulates one function's summary.
type walker struct {
	pass    *analysis.Pass
	opt     Options
	info    *FuncInfo
	recvObj types.Object

	// owned holds the function's locals still considered fresh-allocated
	// (writes through them are not side effects).
	owned map[types.Object]bool
}

// collectOwnership decides which locals are owned: seed every local
// defined in the body as owned, then repeatedly revoke ownership of any
// local that receives a non-fresh value (directly or into one of its
// fields) until stable. The loop is monotone — ownership is only ever
// revoked — so it terminates.
func (w *walker) collectOwnership(body *ast.BlockStmt) {
	w.owned = make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := w.pass.TypesInfo.Defs[id]; obj != nil {
				if _, isVar := obj.(*types.Var); isVar {
					w.owned[obj] = true
				}
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					var rhs ast.Expr
					if len(st.Rhs) == len(st.Lhs) {
						rhs = st.Rhs[i]
					} else if len(st.Rhs) == 1 {
						rhs = st.Rhs[0] // multi-value call: not fresh
					}
					if w.revokeIfContaminated(lhs, rhs) {
						changed = true
					}
				}
			case *ast.RangeStmt:
				// Range vars hold views into the ranged value.
				for _, lhs := range []ast.Expr{st.Key, st.Value} {
					if lhs != nil && w.revokeIfContaminated(lhs, st.X) {
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					var rhs ast.Expr
					if i < len(st.Values) {
						rhs = st.Values[i]
					}
					if rhs != nil && w.revokeIfContaminated(name, rhs) {
						changed = true
					}
				}
			}
			return true
		})
	}
}

// revokeIfContaminated revokes ownership of lhs's root local when rhs is
// not fresh, reporting whether anything changed.
func (w *walker) revokeIfContaminated(lhs, rhs ast.Expr) bool {
	root := rootIdent(lhs)
	if root == nil || root.Name == "_" {
		return false
	}
	obj := w.objOf(root)
	if obj == nil || !w.owned[obj] {
		return false
	}
	if rhs != nil && w.fresh(rhs) {
		return false
	}
	if rhs == nil {
		return false // var declaration without value: zero value is fresh
	}
	delete(w.owned, obj)
	return true
}

// fresh reports whether expr yields a value that carries no references
// into caller-visible memory: a new allocation, a pointer-free value, or
// a view of an owned local.
func (w *walker) fresh(e ast.Expr) bool {
	e = ast.Unparen(e)
	if t := w.pass.TypesInfo.TypeOf(e); t != nil && pointerFree(t, nil) {
		return true
	}
	switch x := e.(type) {
	case *ast.Ident:
		return w.owned[w.objOf(x)]
	case *ast.CallExpr:
		if b, ok := w.builtinName(x); ok {
			return b == "make" || b == "new" || b == "append" && len(x.Args) > 0 && w.fresh(x.Args[0])
		}
		return false
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if !w.fresh(el) {
				return false
			}
		}
		return true
	case *ast.UnaryExpr:
		return x.Op == token.AND && w.fresh(x.X)
	case *ast.IndexExpr:
		return w.fresh(x.X)
	case *ast.SliceExpr:
		return w.fresh(x.X)
	case *ast.SelectorExpr:
		// A field of an owned struct value is owned.
		return w.fresh(x.X)
	case *ast.StarExpr:
		return w.fresh(x.X)
	}
	return false
}

// walk is the main pass: call edges and impurity witnesses.
func (w *walker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			w.recordCall(x)
		case *ast.AssignStmt:
			if x.Tok == token.DEFINE {
				break // fresh locals; contamination handled by ownership
			}
			for _, lhs := range x.Lhs {
				w.checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			w.checkWrite(x.X)
		case *ast.SendStmt:
			if !w.fresh(x.Chan) {
				w.recordImpure(x.Arrow, "sends on a shared channel")
			}
		case *ast.RangeStmt:
			if x.Tok == token.ASSIGN {
				for _, lhs := range []ast.Expr{x.Key, x.Value} {
					if lhs != nil {
						w.checkWrite(lhs)
					}
				}
			}
		}
		return true
	})
}

// recordCall resolves one call expression into a CallSite and checks the
// mutating builtins.
func (w *walker) recordCall(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := w.pass.TypesInfo.Types[fun]; ok && tv.IsType() {
		return // conversion
	}
	if b, ok := w.builtinName(call); ok {
		switch b {
		case "append", "copy":
			if len(call.Args) > 0 && !w.fresh(call.Args[0]) && !w.scratchArg(call.Args[0]) {
				w.recordImpure(call.Pos(), fmt.Sprintf("%s may write through a shared slice", b))
			}
		case "delete":
			if len(call.Args) > 0 && !w.fresh(call.Args[0]) && !w.scratchArg(call.Args[0]) {
				w.recordImpure(call.Pos(), "deletes from a shared map")
			}
		case "close":
			if len(call.Args) > 0 && !w.fresh(call.Args[0]) {
				w.recordImpure(call.Pos(), "closes a shared channel")
			}
		case "print", "println":
			w.recordImpure(call.Pos(), "calls "+b)
		}
		return
	}
	switch f := fun.(type) {
	case *ast.Ident:
		if fn, ok := w.pass.TypesInfo.Uses[f].(*types.Func); ok {
			w.info.Calls = append(w.info.Calls, CallSite{Callee: fn, Pos: call.Pos()})
			return
		}
	case *ast.SelectorExpr:
		if selection := w.pass.TypesInfo.Selections[f]; selection != nil && selection.Kind() == types.MethodVal {
			if types.IsInterface(selection.Recv()) {
				break // dynamic dispatch
			}
			fn, _ := selection.Obj().(*types.Func)
			w.info.Calls = append(w.info.Calls, CallSite{Callee: fn, Pos: call.Pos()})
			return
		}
		if fn, ok := w.pass.TypesInfo.Uses[f.Sel].(*types.Func); ok {
			// Package-qualified call.
			w.info.Calls = append(w.info.Calls, CallSite{Callee: fn, Pos: call.Pos()})
			return
		}
	}
	// Function values, method values, interface calls: dynamic.
	w.info.Calls = append(w.info.Calls, CallSite{Callee: nil, Pos: call.Pos()})
}

// checkWrite records an impurity witness when the written lvalue reaches
// memory not owned by this call frame.
func (w *walker) checkWrite(lhs ast.Expr) {
	if what, bad := w.writeViolation(lhs); bad {
		w.recordImpure(lhs.Pos(), what)
	}
}

// writeViolation walks an lvalue from the outside in: a write is a side
// effect exactly when the path dereferences a pointer, slice, or map that
// is not owned by this frame. Writing into value-typed locals and
// parameters (including their struct fields) stays pure — their storage
// is the frame's own.
func (w *walker) writeViolation(e ast.Expr) (string, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := w.objOf(x)
		if obj == nil || x.Name == "_" {
			return "", false
		}
		if isPackageLevel(obj) {
			return "writes package-level " + x.Name, true
		}
		return "", false // rebinding a local or parameter
	case *ast.SelectorExpr:
		if t := w.pass.TypesInfo.TypeOf(x.X); t != nil {
			if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
				if w.scratchThrough(x) {
					return "", false
				}
				if w.fresh(x.X) {
					return "", false
				}
				return "stores through " + renderExpr(x), true
			}
		}
		if w.scratchThrough(x) {
			return "", false
		}
		return w.writeViolation(x.X)
	case *ast.IndexExpr:
		t := w.pass.TypesInfo.TypeOf(x.X)
		if t == nil {
			return "stores through an index expression", true
		}
		switch t.Underlying().(type) {
		case *types.Slice, *types.Map, *types.Pointer:
			if w.fresh(x.X) || w.scratchArg(x.X) {
				return "", false
			}
			return "stores into " + renderExpr(x), true
		default: // array value
			return w.writeViolation(x.X)
		}
	case *ast.StarExpr:
		if w.fresh(x.X) {
			return "", false
		}
		return "stores through " + renderExpr(x), true
	}
	return "stores through an unanalyzed lvalue", true
}

// scratchArg reports whether an expression is (a view of) a declared
// scratch field of the receiver — the `append(e.buf[:0], ...)` reuse
// idiom — which pure code may mutate.
func (w *walker) scratchArg(e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			return w.scratchThrough(x)
		default:
			return false
		}
	}
}

// scratchThrough reports whether sel is a declared-scratch field of this
// method's receiver (writes through it are exempt).
func (w *walker) scratchThrough(sel *ast.SelectorExpr) bool {
	if w.opt.ScratchField == nil || w.recvObj == nil || w.info.RecvNamed == nil {
		return false
	}
	base, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok || w.objOf(base) != w.recvObj {
		return false
	}
	return w.opt.ScratchField(w.info.RecvNamed.Obj().Name(), sel.Sel.Name)
}

// recordImpure notes the first unwaived impurity witness.
func (w *walker) recordImpure(pos token.Pos, what string) {
	if !w.info.Pure {
		return
	}
	if w.opt.WaiverOK != nil && w.opt.WaiverOK(pos) {
		return
	}
	w.info.Pure = false
	w.info.ImpurePos = pos
	w.info.ImpureWhat = what
}

// objOf resolves an identifier to its object (use or def).
func (w *walker) objOf(id *ast.Ident) types.Object {
	if obj := w.pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return w.pass.TypesInfo.Defs[id]
}

// builtinName reports the builtin a call invokes, if any.
func (w *walker) builtinName(call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if _, ok := w.objOf(id).(*types.Builtin); ok {
		return id.Name, true
	}
	return "", false
}

// rootIdent unwraps an lvalue to its innermost identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPackageLevel reports whether obj is declared at package scope.
func isPackageLevel(obj types.Object) bool {
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// pointerFree reports whether values of t can carry no references to
// other memory (so copies are always frame-local).
func pointerFree(t types.Type, seen map[types.Type]bool) bool {
	if seen[t] {
		return true
	}
	if seen == nil {
		seen = make(map[types.Type]bool)
	}
	seen[t] = true
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Array:
		return pointerFree(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if !pointerFree(u.Field(i).Type(), seen) {
				return false
			}
		}
		return true
	}
	return false
}

// renderExpr prints a short lvalue description for diagnostics.
func renderExpr(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return renderExpr(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return renderExpr(x.X) + "[...]"
	case *ast.StarExpr:
		return "*" + renderExpr(x.X)
	case *ast.CallExpr:
		return renderExpr(x.Fun) + "(...)"
	}
	return "expression"
}
