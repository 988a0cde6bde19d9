// Package detmap enforces the determinism contract behind the repo's
// byte-identical outputs (DESIGN.md §7c): Go map iteration order is
// randomized per run, so a `range` over a map anywhere in the tree —
// figure generators, golden-output tables, the RunLog, even subtest
// spawning — is a latent nondeterminism bug unless the body provably
// cannot observe the order.
//
// A map range is accepted when every statement in its body is
// order-insensitive:
//
//   - commutative numeric accumulation (x++, x--, x += e, x -= e, and
//     the bitwise |=, &=, ^= forms; string += is order-dependent and
//     stays flagged),
//   - writes keyed by the iteration key itself (m2[k] = v, delete(m, k),
//     s[k] accumulation forms),
//   - the sorted-key extraction idiom: a lone `keys = append(keys, k)`
//     whose only appended value is the key (the caller then sorts),
//   - existence probes: `if cond { return <literals> }` / break /
//     continue, which yield the same result no matter which iteration
//     fires first,
//   - ranges binding neither key nor value (every iteration is
//     identical, so ordering cannot leak).
//
// Anything else needs the explicit //tnpu:orderfree waiver on the range
// line (or the line above), asserting that downstream consumers sort or
// otherwise erase the order.
package detmap

import (
	"go/ast"
	"go/token"
	"go/types"

	"tnpu/internal/analysis"
)

// Analyzer is the detmap pass.
var Analyzer = &analysis.Analyzer{
	Name: "detmap",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			rs, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rs.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if rs.Key == nil && rs.Value == nil {
				return true // order cannot be observed
			}
			if pass.WaivedAt(rs.Pos(), "orderfree") {
				return true
			}
			if orderFreeBody(pass, rs) {
				return true
			}
			pass.Reportf(rs.Pos(), "range over map %s has randomized iteration order that can reach output; extract and sort the keys, or annotate //tnpu:orderfree if consumers erase the order", types.ExprString(rs.X))
			return true
		})
	}
	return nil
}

// orderFreeBody reports whether every statement of the range body is one
// of the order-insensitive forms.
func orderFreeBody(pass *analysis.Pass, rs *ast.RangeStmt) bool {
	key, _ := rs.Key.(*ast.Ident)
	for _, stmt := range rs.Body.List {
		if !orderFreeStmt(pass, stmt, key) {
			return false
		}
	}
	return true
}

func orderFreeStmt(pass *analysis.Pass, stmt ast.Stmt, key *ast.Ident) bool {
	switch s := stmt.(type) {
	case *ast.IncDecStmt:
		return true
	case *ast.AssignStmt:
		return orderFreeAssign(pass, s, key)
	case *ast.ExprStmt:
		// delete(m, k) — removal keyed by the iteration key commutes.
		if call, ok := s.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "delete" && len(call.Args) == 2 {
				return isIdent(call.Args[1], key)
			}
		}
		return false
	case *ast.BranchStmt:
		return s.Tok == token.BREAK || s.Tok == token.CONTINUE
	case *ast.IfStmt:
		// Existence probe: all branches order-insensitive, with returns
		// restricted to literal results (same value whichever iteration
		// matches first).
		if s.Init != nil {
			return false
		}
		if !orderFreeProbeBody(pass, s.Body.List, key) {
			return false
		}
		switch e := s.Else.(type) {
		case nil:
			return true
		case *ast.BlockStmt:
			return orderFreeProbeBody(pass, e.List, key)
		case *ast.IfStmt:
			return orderFreeStmt(pass, e, key)
		default:
			return false
		}
	default:
		return false
	}
}

// orderFreeProbeBody accepts statement lists inside an if: the usual
// order-free forms plus constant-result returns.
func orderFreeProbeBody(pass *analysis.Pass, stmts []ast.Stmt, key *ast.Ident) bool {
	for _, stmt := range stmts {
		if ret, ok := stmt.(*ast.ReturnStmt); ok {
			for _, res := range ret.Results {
				if !isLiteral(res) {
					return false
				}
			}
			continue
		}
		if !orderFreeStmt(pass, stmt, key) {
			return false
		}
	}
	return true
}

// orderFreeAssign accepts the commutative and key-addressed assignment
// forms.
func orderFreeAssign(pass *analysis.Pass, s *ast.AssignStmt, key *ast.Ident) bool {
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN:
		// Numeric accumulation commutes; string += concatenates in
		// iteration order and stays flagged.
		for _, lhs := range s.Lhs {
			if !numericNonString(pass, lhs) {
				return false
			}
			if !keyAddressedOrPlain(lhs, key) {
				return false
			}
		}
		return true
	case token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
		for _, lhs := range s.Lhs {
			if !keyAddressedOrPlain(lhs, key) {
				return false
			}
		}
		return true
	case token.ASSIGN, token.DEFINE:
		if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
			return false
		}
		lhs := s.Lhs[0]
		// m2[k] = v: each key writes its own slot exactly once.
		if idx, ok := lhs.(*ast.IndexExpr); ok && isIdent(idx.Index, key) {
			return true
		}
		// keys = append(keys, k): the sorted-extraction idiom; the
		// collected slice carries no order guarantee until sorted, and
		// collecting only the keys keeps the pattern recognizable.
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && len(call.Args) == 2 &&
				isIdent(call.Args[1], key) && sameExpr(lhs, call.Args[0]) {
				return true
			}
		}
		return false
	default:
		return false
	}
}

// keyAddressedOrPlain accepts a plain identifier/selector target or an
// index expression addressed by the iteration key.
func keyAddressedOrPlain(lhs ast.Expr, key *ast.Ident) bool {
	switch l := lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
		return true
	case *ast.IndexExpr:
		return isIdent(l.Index, key)
	default:
		return false
	}
}

func numericNonString(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsNumeric != 0
}

func isIdent(e ast.Expr, id *ast.Ident) bool {
	if id == nil || id.Name == "_" {
		return false
	}
	got, ok := e.(*ast.Ident)
	return ok && got.Name == id.Name
}

// sameExpr reports whether two expressions are the same identifier or
// selector chain (enough for the append idiom).
func sameExpr(a, b ast.Expr) bool {
	switch av := a.(type) {
	case *ast.Ident:
		bv, ok := b.(*ast.Ident)
		return ok && av.Name == bv.Name
	case *ast.SelectorExpr:
		bv, ok := b.(*ast.SelectorExpr)
		return ok && av.Sel.Name == bv.Sel.Name && sameExpr(av.X, bv.X)
	default:
		return false
	}
}

func isLiteral(e ast.Expr) bool {
	switch v := e.(type) {
	case *ast.BasicLit:
		return true
	case *ast.Ident:
		return v.Name == "true" || v.Name == "false" || v.Name == "nil"
	case *ast.UnaryExpr:
		return isLiteral(v.X)
	default:
		return false
	}
}
