// Package secerr enforces the typed-error contract of the security
// layer (DESIGN.md §7c): every error produced by the verification and
// attacker-surface packages — secmem, memprot, attack, integrity — is a
// detection signal (secmem.ErrIntegrity, secmem.ErrAbsentBlock) that the
// adversarial detection matrix counts on. Dropping one silently converts
// a detected tampering into a miss.
//
// The analyzer flags three shapes at every call whose callee lives in a
// contract package and returns an error:
//
//   - the call result discarded outright (a bare expression statement),
//   - the error result assigned to the blank identifier,
//   - the error bound with := to a variable that is never read again
//     (a shadowed or forgotten check).
//
// Deliberate drops (e.g. asserting that an attack primitive fails) carry
// the //tnpu:errok waiver on the call line or the line above.
package secerr

import (
	"go/ast"
	"go/types"

	"tnpu/internal/analysis"
)

// ContractPackages lists the package base names whose returned errors
// must be consumed. Base names keep the registry valid for both the real
// tree (tnpu/internal/secmem) and analysistest fixtures
// (testdata/secmem).
var ContractPackages = map[string]bool{
	"secmem":    true,
	"memprot":   true,
	"attack":    true,
	"integrity": true,
}

// Analyzer is the secerr pass.
var Analyzer = &analysis.Analyzer{
	Name: "secerr",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch s := n.(type) {
			case *ast.ExprStmt:
				call, ok := s.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				name, errIdx := contractError(pass, call)
				if errIdx < 0 || pass.WaivedAt(call.Pos(), "errok") {
					return true
				}
				pass.Reportf(call.Pos(), "result of %s contains a verification error that is discarded; handle it or annotate //tnpu:errok", name)
				return true
			case *ast.AssignStmt:
				checkAssign(pass, s)
				return true
			}
			return true
		})
	}
	return nil
}

// checkAssign flags blank-discarded and never-read error results of
// contract calls on the right-hand side of an assignment.
func checkAssign(pass *analysis.Pass, s *ast.AssignStmt) {
	// Only the multi-value form `a, err := f()` maps result indices to
	// LHS positions; tuple-unpacking across several calls cannot occur.
	if len(s.Rhs) != 1 {
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name, errIdx := contractError(pass, call)
	if errIdx < 0 || errIdx >= len(s.Lhs) {
		return
	}
	if pass.WaivedAt(call.Pos(), "errok") {
		return
	}
	target, ok := s.Lhs[errIdx].(*ast.Ident)
	if !ok {
		return
	}
	if target.Name == "_" {
		pass.Reportf(target.Pos(), "verification error from %s assigned to the blank identifier; handle it or annotate //tnpu:errok", name)
		return
	}
	// A := definition that is never read is a dropped check (commonly a
	// shadowing bug inside a narrower scope).
	obj := pass.TypesInfo.Defs[target]
	if obj == nil {
		return // plain assignment to an existing variable: assume checked
	}
	if !objUsed(pass, obj) {
		pass.Reportf(target.Pos(), "verification error from %s is assigned to %s but never checked", name, target.Name)
	}
}

// objUsed reports whether obj is read anywhere in the package.
func objUsed(pass *analysis.Pass, obj types.Object) bool {
	for _, o := range pass.TypesInfo.Uses {
		if o == obj {
			return true
		}
	}
	return false
}

// contractError resolves a call's callee; when the callee belongs to a
// contract package and its results include an error, it returns the
// callee's name and the index of the (last) error result, else -1.
func contractError(pass *analysis.Pass, call *ast.CallExpr) (string, int) {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return "", -1
	}
	obj, ok := pass.TypesInfo.Uses[id].(*types.Func)
	if !ok || obj.Pkg() == nil || !ContractPackages[analysis.PkgBase(obj.Pkg().Path())] {
		return "", -1
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok {
		return "", -1
	}
	res := sig.Results()
	for i := res.Len() - 1; i >= 0; i-- {
		if isErrorType(res.At(i).Type()) {
			return obj.Name(), i
		}
	}
	return "", -1
}

var universeError = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return types.Identical(t, universeError)
}
