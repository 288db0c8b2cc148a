package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// FloatExact guards the exact demand arithmetic: dbf's int64 Frac
// values and u128 per-demand stats, the fixed-common-denominator sums
// (dbf.Sum, the Analyzer's), and the exact Theorem-3 weights core
// carries. A single float64 round-trip can flip a Theorem 1–3
// schedulability verdict near the feasibility boundary, so
// exact-analysis code must not convert to, extract, or compare
// floating-point values. Benefit-objective code (weights are floats
// by design) lives outside this analyzer's scope or carries an
// explicit directive.
var FloatExact = &Analyzer{
	Name: "floatexact",
	Doc:  "forbid float conversions, math/big float extractions, and float comparisons in exact-analysis code",
	// The dbf package and every core file that carries exact values:
	// the exact upgrade pass, the budget estimator whose Ri values
	// feed it, the incremental admission path, and the decision types
	// and their round-trip serialization (Theorem3Total must survive
	// I/O bit-exactly).
	Scope: func(relDir, base string) bool {
		if relDir == "internal/dbf" {
			return true
		}
		switch base {
		case "exact.go", "estimator.go", "admission.go", "core.go", "decisionio.go":
			return relDir == "internal/core"
		}
		return false
	},
	Run: runFloatExact,
}

func runFloatExact(pass *Pass) {
	pass.Inspect(func(pkg *Package, n ast.Node) {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkFloatConversion(pass, pkg, n)
			checkBigFloatExtraction(pass, pkg, n)
		case *ast.BinaryExpr:
			checkFloatComparison(pass, pkg, n)
		}
	})
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func checkFloatConversion(pass *Pass, pkg *Package, call *ast.CallExpr) {
	if len(call.Args) != 1 {
		return
	}
	tv, ok := pkg.Info.Types[call.Fun]
	if !ok || !tv.IsType() || !isFloat(tv.Type) {
		return
	}
	pass.Reportf(call.Pos(), "conversion to %s in exact-arithmetic code loses exactness; keep exact integer or dbf.Frac/Sum values, or annotate with //rtlint:allow floatexact -- <reason>",
		types.TypeString(tv.Type, types.RelativeTo(pkg.Types)))
}

func checkBigFloatExtraction(pass *Pass, pkg *Package, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "math/big" {
		return
	}
	if name := fn.Name(); name == "Float64" || name == "Float32" {
		pass.Reportf(call.Pos(), "(%s).%s extracts a rounded float from an exact value; compare with Cmp or keep the big.Rat, or annotate with //rtlint:allow floatexact -- <reason>",
			types.TypeString(fn.Type().(*types.Signature).Recv().Type(), types.RelativeTo(pkg.Types)), name)
	}
}

var comparisonOps = map[token.Token]bool{
	token.EQL: true, token.NEQ: true,
	token.LSS: true, token.LEQ: true,
	token.GTR: true, token.GEQ: true,
}

func checkFloatComparison(pass *Pass, pkg *Package, e *ast.BinaryExpr) {
	if !comparisonOps[e.Op] {
		return
	}
	tx, ty := pkg.Info.TypeOf(e.X), pkg.Info.TypeOf(e.Y)
	if tx == nil || ty == nil || (!isFloat(tx) && !isFloat(ty)) {
		return
	}
	pass.Reportf(e.OpPos, "float comparison in exact-arithmetic code (rounding near the feasibility boundary flips verdicts); compare exact values, or annotate with //rtlint:allow floatexact -- <reason>")
}
