package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// OverflowGuard protects the integer demand arithmetic. Demand values
// are microsecond counts multiplied by job counts over an analysis
// horizon — products and running sums approach int64 range on
// adversarial task sets, and a silent wrap turns an infeasible set
// into a "schedulable" verdict. All multiplication (and shifting) of
// Duration/int64 demand values, and any addition of *derived* demand
// values (call results or products), must go through the checked
// helpers in internal/dbf/frac.go, which widen to 128 bits, detect
// overflow, or saturate conservatively.
var OverflowGuard = &Analyzer{
	Name: "overflowguard",
	Doc:  "forbid raw *, <<, and derived + on Duration/int64 demand values outside the checked helpers in frac.go",
	// Demand arithmetic; frac.go hosts the checked helpers and is the
	// one file allowed to do raw int64 work.
	Scope: func(relDir, base string) bool {
		return (relDir == "internal/dbf" && base != "frac.go") || relDir == "internal/core"
	},
	Run: runOverflowGuard,
}

func runOverflowGuard(pass *Pass) {
	pass.Inspect(func(pkg *Package, n ast.Node) {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			checkBinaryOverflow(pass, pkg, n)
		case *ast.AssignStmt:
			checkAssignOverflow(pass, pkg, n)
		}
	})
}

// isInt64Like reports whether t's underlying type is int64 — this
// covers rtime.Duration, rtime.Instant, and raw int64 demand counts.
func isInt64Like(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int64
}

// derived reports whether x is a computed demand value — a call
// result, a product, or a sum/difference containing one — rather
// than a plain parameter or field. Sums of plain task parameters are
// bounded by validation; sums of derived values are where running
// demand totals overflow.
func derived(x ast.Expr) bool {
	switch x := ast.Unparen(x).(type) {
	case *ast.CallExpr:
		return true
	case *ast.BinaryExpr:
		switch x.Op {
		case token.MUL, token.SHL:
			return true
		case token.ADD, token.SUB:
			return derived(x.X) || derived(x.Y)
		}
	}
	return false
}

func typeNameOf(pkg *Package, e ast.Expr) string {
	// Qualify by package name, not import path, so diagnostics read
	// "rtime.Duration" the way the source does.
	return types.TypeString(pkg.Info.TypeOf(e), func(other *types.Package) string {
		if other == pkg.Types {
			return ""
		}
		return other.Name()
	})
}

func checkBinaryOverflow(pass *Pass, pkg *Package, e *ast.BinaryExpr) {
	if tv, ok := pkg.Info.Types[e]; ok && tv.Value != nil {
		return // folded constant, checked by the compiler
	}
	if !isInt64Like(pkg.Info.TypeOf(e.X)) {
		return
	}
	switch e.Op {
	case token.MUL:
		pass.Reportf(e.OpPos, "unchecked %s multiplication can wrap int64 and flip a schedulability verdict; use mul128/mulDur/mulDiv64 from internal/dbf/frac.go, or annotate with //rtlint:allow overflowguard -- <reason>", typeNameOf(pkg, e.X))
	case token.SHL:
		pass.Reportf(e.OpPos, "unchecked %s left shift can wrap int64; use the checked helpers in internal/dbf/frac.go, or annotate with //rtlint:allow overflowguard -- <reason>", typeNameOf(pkg, e.X))
	case token.ADD:
		if derived(e.X) || derived(e.Y) {
			pass.Reportf(e.OpPos, "unchecked %s addition of derived demand values can wrap int64; use add64/addDur from internal/dbf/frac.go, or annotate with //rtlint:allow overflowguard -- <reason>", typeNameOf(pkg, e.X))
		}
	}
}

func checkAssignOverflow(pass *Pass, pkg *Package, s *ast.AssignStmt) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 || !isInt64Like(pkg.Info.TypeOf(s.Lhs[0])) {
		return
	}
	switch s.Tok {
	case token.MUL_ASSIGN:
		pass.Reportf(s.TokPos, "unchecked %s *= can wrap int64; use mul128/mulDur/mulDiv64 from internal/dbf/frac.go, or annotate with //rtlint:allow overflowguard -- <reason>", typeNameOf(pkg, s.Lhs[0]))
	case token.SHL_ASSIGN:
		pass.Reportf(s.TokPos, "unchecked %s <<= can wrap int64; use the checked helpers in internal/dbf/frac.go, or annotate with //rtlint:allow overflowguard -- <reason>", typeNameOf(pkg, s.Lhs[0]))
	case token.ADD_ASSIGN:
		if derived(s.Rhs[0]) {
			pass.Reportf(s.TokPos, "unchecked %s += of a derived demand value can wrap int64; use add64/addDur from internal/dbf/frac.go, or annotate with //rtlint:allow overflowguard -- <reason>", typeNameOf(pkg, s.Lhs[0]))
		}
	}
}
