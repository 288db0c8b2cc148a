package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// ErrSink flags discarded error returns from the fmt.Fprint family
// and io.Writer-style calls in library packages. A render function
// that drops a short-write error produces a silently truncated table
// or trace; library code must propagate the error (or acknowledge the
// drop with an explicit `_ =` assignment, which this analyzer
// deliberately accepts as visible intent). Writes to *strings.Builder
// and *bytes.Buffer are exempt: both are documented to never return a
// non-nil error.
var ErrSink = &Analyzer{
	Name: "errsink",
	Doc:  "forbid silently discarded io.Writer / fmt.Fprint-family errors in library packages",
	// Library packages only; main packages own their best-effort
	// console output.
	Scope: func(relDir, _ string) bool {
		return relDir == "" || strings.HasPrefix(relDir, "internal/")
	},
	Run: runErrSink,
}

// sinkFuncs are the package-level writer functions whose error must
// not be dropped, keyed by package path then name.
var sinkFuncs = map[string]map[string]bool{
	"fmt": {"Fprint": true, "Fprintf": true, "Fprintln": true},
	"io":  {"WriteString": true, "Copy": true, "CopyN": true, "CopyBuffer": true},
}

// sinkMethods are writer-shaped method names whose error must not be
// dropped (when the method's last result is an error).
var sinkMethods = map[string]bool{
	"Write":       true,
	"WriteString": true,
	"WriteByte":   true,
	"WriteRune":   true,
	"WriteTo":     true,
	"Flush":       true,
}

// infallibleWriters never return a non-nil error, per their
// documentation; flagging them would force noise annotations on the
// pervasive Builder idiom.
var infallibleWriters = map[string]bool{
	"strings.Builder": true,
	"bytes.Buffer":    true,
}

func runErrSink(pass *Pass) {
	pass.Inspect(func(pkg *Package, n ast.Node) {
		if stmt, ok := n.(*ast.ExprStmt); ok {
			if call, ok := stmt.X.(*ast.CallExpr); ok {
				checkDiscardedError(pass, pkg, call)
			}
		}
	})
}

func checkDiscardedError(pass *Pass, pkg *Package, call *ast.CallExpr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return
	}
	fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || !lastResultIsError(sig) {
		return
	}
	if sig.Recv() == nil {
		if fn.Pkg() != nil && sinkFuncs[fn.Pkg().Path()][fn.Name()] {
			pass.Reportf(call.Pos(), "error result of %s.%s discarded in a library package; return it, check it, or assign to _ to acknowledge the drop (or annotate with //rtlint:allow errsink -- <reason>)", fn.Pkg().Name(), fn.Name())
		}
		return
	}
	if !sinkMethods[fn.Name()] {
		return
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	if named, ok := recv.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && infallibleWriters[obj.Pkg().Name()+"."+obj.Name()] {
			return
		}
	}
	pass.Reportf(call.Pos(), "error result of (%s).%s discarded in a library package; return it, check it, or assign to _ to acknowledge the drop (or annotate with //rtlint:allow errsink -- <reason>)",
		types.TypeString(sig.Recv().Type(), types.RelativeTo(pkg.Types)), fn.Name())
}

func lastResultIsError(sig *types.Signature) bool {
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	t, ok := res.At(res.Len() - 1).Type().(*types.Named)
	return ok && t.Obj().Pkg() == nil && t.Obj().Name() == "error"
}
