// Package cycleunits is a lightweight unit checker for the simulator's
// two load-bearing integer quantities: cycles and bytes (DESIGN.md §7c).
// Both flow through the timing model as raw uint64s, and the
// bandwidth/latency arithmetic in dram and npu mixes them only through
// explicit rate conversions — so an additive or comparison expression
// with a cycle quantity on one side and a byte quantity on the other is
// almost certainly a unit-confusion bug (the class behind PR 3's
// CyclesForBytes multi-channel fix).
//
// Units are inferred from names, the only signal a raw-uint64 codebase
// offers: an identifier, selector, or call whose camel-case name
// mentions bytes carries the byte unit; cycles or latency carries the
// cycle unit. Multiplication and division are exempt — they are how
// rates legitimately convert one unit into the other.
//
// The analyzer also flags lossy float64 round-trips: an integer
// conversion applied to floating-point arithmetic over a cycle or byte
// quantity silently reintroduces platform- and order-dependent rounding
// into exact integer accounting (determinism hazard). Rational integer
// arithmetic (num/den pairs, as dram.Bus does) is the fix; a deliberate
// float step carries the //tnpu:unitok waiver.
package cycleunits

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"tnpu/internal/analysis"
)

// unit is the inferred dimension of an expression.
type unit int

const (
	unitNone unit = iota
	unitCycles
	unitBytes
)

func (u unit) String() string {
	switch u {
	case unitCycles:
		return "cycles"
	case unitBytes:
		return "bytes"
	}
	return "unitless"
}

// Analyzer is the cycleunits pass.
var Analyzer = &analysis.Analyzer{
	Name: "cycleunits",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch e := n.(type) {
			case *ast.BinaryExpr:
				checkMix(pass, e)
			case *ast.CallExpr:
				checkRoundTrip(pass, e)
			}
			return true
		})
	}
	return nil
}

// mixOps are the operators that require both operands in the same unit.
var mixOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.LEQ: true, token.GTR: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
}

// checkMix flags additive/comparison expressions whose operands infer
// conflicting units.
func checkMix(pass *analysis.Pass, e *ast.BinaryExpr) {
	if !mixOps[e.Op] {
		return
	}
	lu, ru := inferUnit(e.X), inferUnit(e.Y)
	if lu == unitNone || ru == unitNone || lu == ru {
		return
	}
	if pass.WaivedAt(e.Pos(), "unitok") {
		return
	}
	pass.Reportf(e.Pos(), "%s mixes %s (%s) with %s (%s); convert through an explicit rate or annotate //tnpu:unitok", e.Op, types.ExprString(e.X), lu, types.ExprString(e.Y), ru)
}

// checkRoundTrip flags integer conversions of float arithmetic over a
// united quantity.
func checkRoundTrip(pass *analysis.Pass, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || dst.Info()&types.IsInteger == 0 {
		return
	}
	arg := call.Args[0]
	at := pass.TypesInfo.Types[arg].Type
	if at == nil {
		return
	}
	ab, ok := at.Underlying().(*types.Basic)
	if !ok || ab.Info()&types.IsFloat == 0 {
		return
	}
	u := floatOperandUnit(arg)
	if u == unitNone {
		return
	}
	if pass.WaivedAt(call.Pos(), "unitok") {
		return
	}
	pass.Reportf(call.Pos(), "integer conversion of float arithmetic over a %s quantity loses exactness; use rational integer arithmetic (num/den) or annotate //tnpu:unitok", u)
}

// floatOperandUnit scans a float expression tree for a united operand.
func floatOperandUnit(e ast.Expr) unit {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return floatOperandUnit(v.X)
	case *ast.BinaryExpr:
		if u := floatOperandUnit(v.X); u != unitNone {
			return u
		}
		return floatOperandUnit(v.Y)
	case *ast.CallExpr:
		// float64(cycles): the conversion operand carries the unit.
		if len(v.Args) == 1 {
			if u := inferUnit(v.Args[0]); u != unitNone {
				return u
			}
		}
		return inferUnit(v)
	default:
		return inferUnit(e)
	}
}

// inferUnit derives an expression's unit from its name structure.
func inferUnit(e ast.Expr) unit {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return inferUnit(v.X)
	case *ast.Ident:
		return nameUnit(v.Name)
	case *ast.SelectorExpr:
		return nameUnit(v.Sel.Name)
	case *ast.CallExpr:
		// A call's unit is its callee's: Latency(), BytesMoved(), …
		switch fun := v.Fun.(type) {
		case *ast.Ident:
			return nameUnit(fun.Name)
		case *ast.SelectorExpr:
			return nameUnit(fun.Sel.Name)
		}
		return unitNone
	case *ast.BinaryExpr:
		switch v.Op {
		case token.ADD, token.SUB:
			lu, ru := inferUnit(v.X), inferUnit(v.Y)
			switch {
			case lu == ru:
				return lu
			case lu == unitNone:
				return ru
			case ru == unitNone:
				return lu
			}
			return unitNone // conflicting: flagged at its own node
		case token.MUL:
			// rate conversions: unit * unitless keeps the unit; a
			// two-unit product is a rate application whose result the
			// names no longer describe.
			lu, ru := inferUnit(v.X), inferUnit(v.Y)
			switch {
			case lu == unitNone:
				return ru
			case ru == unitNone:
				return lu
			}
			return unitNone
		}
		return unitNone
	case *ast.UnaryExpr:
		return inferUnit(v.X)
	default:
		return unitNone
	}
}

// nameUnit classifies a camel-case name by its first unit keyword.
func nameUnit(name string) unit {
	lower := strings.ToLower(name)
	bi := firstIndexAny(lower, "bytes")
	ci := firstIndexAny(lower, "cycle", "latency")
	switch {
	case bi < 0 && ci < 0:
		return unitNone
	case ci < 0 || (bi >= 0 && bi < ci):
		return unitBytes
	default:
		return unitCycles
	}
}

// firstIndexAny returns the earliest index of any keyword in s, or -1.
func firstIndexAny(s string, keywords ...string) int {
	best := -1
	for _, k := range keywords {
		if i := strings.Index(s, k); i >= 0 && (best < 0 || i < best) {
			best = i
		}
	}
	return best
}
