// Package noalloc guards the zero-allocation contract of the batched
// simulation hot path (DESIGN.md §7c). TestBatchedRunNoAllocs pins
// 0 allocs/op on steady-state ReadRun/WriteRun at runtime; this analyzer
// moves the first line of defense to compile time:
//
//   - Every ReadRun/WriteRun method in the memprot package (the
//     Engine fast-path entry points the test pins) must carry the
//     //tnpu:noalloc annotation in its doc comment.
//   - Inside any function annotated //tnpu:noalloc, the obvious
//     allocation constructs are flagged: append, make, new, taking the
//     address of a composite literal, slice/map/pointer-kinded composite
//     literals, string concatenation and []byte/string conversions,
//     fmt.* calls, function literals (closure environments), go
//     statements, and implicit interface boxing at call arguments.
//
// The check is intra-procedural by design: annotate each function on the
// hot path rather than relying on transitive analysis. A construct that
// provably does not allocate in steady state (append into a presized
// buffer, a first-touch lazily allocated line) carries the
// //tnpu:allocok waiver with a justification comment.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"tnpu/internal/analysis"
)

// Marker is the annotation that opts a function into the check.
const Marker = "noalloc"

// RequiredMethods maps package base name to method names that MUST carry
// the annotation: the batched Engine entry points whose allocation
// behavior TestBatchedRunNoAllocs pins.
var RequiredMethods = map[string]map[string]bool{
	"memprot": {"ReadRun": true, "WriteRun": true},
}

// Analyzer is the noalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	required := RequiredMethods[analysis.PkgBase(pass.Pkg.Path())]
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			annotated := analysis.DocHasMarker(fd.Doc, Marker)
			if !annotated && required != nil && fd.Recv != nil && required[fd.Name.Name] {
				pass.Reportf(fd.Pos(), "%s is a batched hot-path entry point (pinned by TestBatchedRunNoAllocs) and must be annotated //tnpu:%s", fd.Name.Name, Marker)
				continue
			}
			if annotated && fd.Body != nil {
				checkBody(pass, fd)
			}
		}
	}
	return nil
}

// checkBody walks one annotated function and flags allocation
// constructs.
func checkBody(pass *analysis.Pass, fd *ast.FuncDecl) {
	report := func(pos token.Pos, what string) {
		if pass.WaivedAt(pos, "allocok") {
			return
		}
		pass.Reportf(pos, "%s inside //tnpu:%s function %s; remove it or annotate //tnpu:allocok with a justification", what, Marker, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			report(e.Pos(), "function literal (closure environment may allocate)")
			return false // inner body judged with the closure
		case *ast.GoStmt:
			report(e.Pos(), "go statement (new goroutine allocates)")
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				if _, ok := e.X.(*ast.CompositeLit); ok {
					report(e.Pos(), "address of composite literal")
				}
			}
		case *ast.CompositeLit:
			if allocatingLiteral(pass, e) {
				report(e.Pos(), "slice or map composite literal")
			}
		case *ast.BinaryExpr:
			if e.Op == token.ADD && isString(pass, e.X) {
				report(e.Pos(), "string concatenation")
			}
		case *ast.CallExpr:
			checkCall(pass, e, report)
		}
		return true
	})
}

// checkCall flags allocating builtins, fmt calls, allocating
// conversions, and implicit interface boxing of arguments.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, report func(token.Pos, string)) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "append":
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				report(call.Pos(), "append (grows the backing array unless capacity is proven)")
				return
			}
		case "make", "new":
			if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); isBuiltin {
				report(call.Pos(), fun.Name)
				return
			}
		}
	case *ast.SelectorExpr:
		if pkgID, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				report(call.Pos(), "fmt."+fun.Sel.Name+" call")
				return
			}
		}
	}
	// Conversions: string(b)/[]byte(s)/[]rune(s) copy their operand.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type.Underlying()
		src := pass.TypesInfo.Types[call.Args[0]].Type
		if src != nil {
			switch d := dst.(type) {
			case *types.Basic:
				if d.Info()&types.IsString != 0 && !isStringType(src) {
					report(call.Pos(), "conversion to string")
				}
			case *types.Slice:
				if isStringType(src) {
					report(call.Pos(), "conversion from string to slice")
				}
			case *types.Interface:
				if _, ok := src.Underlying().(*types.Interface); !ok && !pointerShaped(src) {
					report(call.Pos(), "conversion to interface (boxes the value)")
				}
			}
		}
		return
	}
	// Implicit boxing: a concrete argument passed for an interface
	// parameter allocates unless the value is pointer-shaped and escapes
	// analysis-friendly; flag it and let the author waive proven cases.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.(*types.Slice); ok {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := pt.Underlying().(*types.Interface); !isIface {
			continue
		}
		at := pass.TypesInfo.Types[arg].Type
		if at == nil || at == types.Typ[types.UntypedNil] {
			continue
		}
		if _, argIface := at.Underlying().(*types.Interface); argIface {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		if pointerShaped(at) {
			continue
		}
		report(arg.Pos(), "interface boxing of argument")
	}
}

// callSignature resolves the signature of a (non-conversion) call.
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

// allocatingLiteral reports whether a composite literal's own kind
// allocates (slices and maps; arrays and plain structs are stack
// values).
func allocatingLiteral(pass *analysis.Pass, e *ast.CompositeLit) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

// pointerShaped reports whether a value of type t fits the interface
// data word directly (pointers, channels, maps, funcs, unsafe pointers):
// storing one in an interface copies the word without heap boxing.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

func isString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.Type != nil && isStringType(tv.Type)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
