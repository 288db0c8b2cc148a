package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// HotAlloc proves the zero-allocation claim of the hot paths: every
// function reachable from an //rtlint:hotpath root must contain no
// allocating construct. The claim is structural (arena reuse,
// free-list recycling, self-append growth), so the analyzer flags the
// constructs that defeat it:
//
//   - make / new, slice, map and &T{} composite literals;
//   - append outside the sanctioned self-append form
//     x = append(x, ...) / x = append(x[:0], ...), the amortized-growth
//     idiom the arenas are built on;
//   - closures that capture variables, method values, go statements;
//   - implicit interface conversions that box non-pointer-shaped
//     values (constants are compiler-folded into static storage and
//     exempt);
//   - string concatenation, map writes, []byte/[]rune/string
//     conversions;
//   - calls that cannot be verified: func-value calls, and calls into
//     packages outside the module unless they are on the small
//     known-non-allocating list (sync lock ops, math, math/bits,
//     sync/atomic, sort.Sort/Stable/Search, big.Int read accessors).
//
// Traversal follows the call graph: static calls descend into the
// callee, interface calls descend into every CHA candidate. An
// //rtlint:allow hotalloc directive on a call-site line prunes the
// traversal into that callee — the stated reason then covers the whole
// subtree (used for cold setup paths like one-time init or error
// reporting).
//
// testing.AllocsPerRun gate tests back each root at runtime; the
// analyzer is the static half of the same contract.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "functions reachable from //rtlint:hotpath roots must not allocate",
	Run:  runHotAlloc,
}

// noAllocPkgs are packages whose exported functions and methods do not
// allocate on any path rtlint cares about.
var noAllocPkgs = map[string]bool{
	"math":        true,
	"math/bits":   true,
	"sync/atomic": true,
}

// noAllocFuncs lists individually vetted non-allocating external
// functions and methods, keyed by types.Func.FullName.
var noAllocFuncs = map[string]bool{
	"sort.Sort":                true,
	"sort.Stable":              true,
	"sort.Search":              true,
	"(*sync.Mutex).Lock":       true,
	"(*sync.Mutex).Unlock":     true,
	"(*sync.Mutex).TryLock":    true,
	"(*sync.RWMutex).Lock":     true,
	"(*sync.RWMutex).Unlock":   true,
	"(*sync.RWMutex).RLock":    true,
	"(*sync.RWMutex).RUnlock":  true,
	"(*math/big.Int).Sign":     true,
	"(*math/big.Int).Cmp":      true,
	"(*math/big.Int).CmpAbs":   true,
	"(*math/big.Int).BitLen":   true,
	"(*math/big.Int).IsInt64":  true,
	"(*math/big.Int).IsUint64": true,
	"(*math/big.Int).Int64":    true,
	"(*math/big.Int).Uint64":   true,
	"(*math/big.Rat).Sign":     true,
	"(*math/big.Rat).Cmp":      true,
	"(*math/big.Rat).Num":      true,
	"(*math/big.Rat).Denom":    true,
	"(*math/big.Rat).IsInt":    true,
}

func isNoAllocExternal(fn *types.Func) bool {
	if fn.Pkg() != nil && noAllocPkgs[fn.Pkg().Path()] {
		return true
	}
	return noAllocFuncs[fn.FullName()]
}

// hotWork is one function to analyze plus the root it was reached
// from, for messages.
type hotWork struct {
	node *FuncNode
	root string
}

func runHotAlloc(pass *Pass) {
	// Deterministic root order: by source position.
	var roots []*FuncNode
	for fn := range pass.Ann.Hotpath {
		if node := pass.Graph.Node(fn); node != nil {
			roots = append(roots, node)
		}
	}
	sort.Slice(roots, func(i, j int) bool {
		pi := pass.Module.Fset.Position(roots[i].Decl.Pos())
		pj := pass.Module.Fset.Position(roots[j].Decl.Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Line < pj.Line
	})

	visited := map[*types.Func]bool{}
	var queue []hotWork
	for _, r := range roots {
		queue = append(queue, hotWork{node: r, root: funcDisplayName(r.Fn)})
	}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if visited[w.node.Fn] {
			continue
		}
		visited[w.node.Fn] = true
		queue = append(queue, checkHotFunc(pass, w)...)
	}
}

// funcDisplayName renders fn as Type.Method or pkg.Func for messages.
func funcDisplayName(fn *types.Func) string {
	sig := fn.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + fn.Name()
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return fn.Name()
}

// checkHotFunc walks one function body, reports allocating constructs,
// and returns the in-module callees to visit next.
func checkHotFunc(pass *Pass, w hotWork) []hotWork {
	node := w.node
	info := node.Pkg.Info
	body := node.Decl.Body

	// Pre-pass: the expressions that are call operands (so a selector
	// used as a call's Fun is not a method value), the append calls in
	// sanctioned self-append form, and the func literals (whose return
	// statements belong to their own signatures).
	funExprs := map[ast.Expr]bool{}
	selfAppend := map[*ast.CallExpr]bool{}
	var funcLits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			funExprs[ast.Unparen(n.Fun)] = true
		case *ast.AssignStmt:
			markSelfAppends(info, n, selfAppend)
		case *ast.FuncLit:
			funcLits = append(funcLits, n)
		}
		return true
	})

	report := func(pos token.Pos, format string, args ...any) {
		args = append(args, w.root)
		pass.Reportf(pos, format+" (hot path from root %s)", args...)
	}

	var next []hotWork
	enqueue := func(callee *FuncNode) { next = append(next, hotWork{node: callee, root: w.root}) }

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(pass, w, n, selfAppend, report, enqueue)
		case *ast.CompositeLit:
			switch info.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				report(n.Pos(), "%s composite literal allocates", types.ExprString(n.Type))
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "&composite literal allocates")
				}
			}
		case *ast.FuncLit:
			for _, captured := range capturedVars(info, n) {
				report(n.Pos(), "closure captures %s and allocates", captured)
				break // one finding per literal is enough
			}
		case *ast.SelectorExpr:
			if !funExprs[ast.Expr(n)] {
				if sel, ok := info.Selections[n]; ok && sel.Kind() == types.MethodVal {
					report(n.Pos(), "method value %s allocates", types.ExprString(n))
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && info.Types[n].Value == nil {
				if basic, ok := info.TypeOf(n).Underlying().(*types.Basic); ok && basic.Info()&types.IsString != 0 {
					report(n.Pos(), "string concatenation allocates")
				}
			}
		case *ast.AssignStmt:
			checkHotAssign(info, n, report)
		case *ast.IncDecStmt:
			if idx, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
				report(n.Pos(), "map update may allocate")
			}
		case *ast.GoStmt:
			report(n.Pos(), "go statement allocates a goroutine")
		case *ast.ReturnStmt:
			sig := enclosingSignature(info, node, funcLits, n.Pos())
			checkReturnBoxing(info, sig, n, report)
		case *ast.ValueSpec:
			if n.Type != nil {
				to := info.TypeOf(n.Type)
				for _, v := range n.Values {
					checkBoxing(info, v, to, report)
				}
			}
		}
		return true
	})
	return next
}

// checkHotCall classifies one call on the hot path.
func checkHotCall(pass *Pass, w hotWork, call *ast.CallExpr, selfAppend map[*ast.CallExpr]bool, report func(token.Pos, string, ...any), enqueue func(*FuncNode)) {
	info := w.node.Pkg.Info
	targets := pass.Graph.Resolve(w.node.Pkg, call)
	switch {
	case targets.Builtin != "":
		switch targets.Builtin {
		case "make":
			report(call.Pos(), "make allocates")
		case "new":
			report(call.Pos(), "new allocates")
		case "append":
			if !selfAppend[call] {
				report(call.Pos(), "append outside the self-append form x = append(x, ...) may grow")
			}
		}
	case targets.Conversion:
		checkConversion(info, call, report)
	case targets.Static != nil:
		if pass.Allowed(call.Pos()) {
			return // justified cold subtree: prune traversal
		}
		checkCallBoxing(info, targets.Static.Fn, call, report)
		enqueue(targets.Static)
	case len(targets.Interface) > 0:
		if pass.Allowed(call.Pos()) {
			return
		}
		for _, cand := range targets.Interface {
			enqueue(cand)
		}
	case targets.External != nil:
		if isNoAllocExternal(targets.External) {
			checkCallBoxing(info, targets.External, call, report)
			return
		}
		report(call.Pos(), "call to %s outside the module may allocate", targets.External.FullName())
	default:
		// Dynamic, or an interface method with no in-module
		// implementation: no callee to verify.
		report(call.Pos(), "unresolvable call (func value or external interface) cannot be verified allocation-free")
	}
}

// markSelfAppends records append calls in the sanctioned
// x = append(x, ...) / x = append(x[:0], ...) form.
func markSelfAppends(info *types.Info, assign *ast.AssignStmt, out map[*ast.CallExpr]bool) {
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, rhs := range assign.Rhs {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			continue
		}
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		if !ok {
			continue
		}
		if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
			continue
		}
		base := ast.Unparen(call.Args[0])
		if se, ok := base.(*ast.SliceExpr); ok {
			base = ast.Unparen(se.X)
		}
		if types.ExprString(ast.Unparen(assign.Lhs[i])) == types.ExprString(base) {
			out[call] = true
		}
	}
}

// checkConversion flags the conversions that copy their operand into a
// fresh allocation: string <-> []byte/[]rune, string(rune), and
// conversions to interface types (boxing).
func checkConversion(info *types.Info, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	if len(call.Args) != 1 {
		return
	}
	to := info.TypeOf(call.Fun)
	from := info.TypeOf(call.Args[0])
	if info.Types[call.Args[0]].Value != nil && !types.IsInterface(to.Underlying()) {
		return // constant-folded
	}
	toStr := isStringType(to)
	fromStr := isStringType(from)
	switch {
	case types.IsInterface(to.Underlying()):
		checkBoxing(info, call.Args[0], to, report)
	case toStr && !fromStr, fromStr && !toStr:
		report(call.Pos(), "conversion from %s to %s copies and allocates", types.TypeString(from, nil), types.TypeString(to, nil))
	}
}

func isStringType(t types.Type) bool {
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// checkHotAssign flags map writes and interface boxing on assignment.
func checkHotAssign(info *types.Info, assign *ast.AssignStmt, report func(token.Pos, string, ...any)) {
	for _, lhs := range assign.Lhs {
		if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, idx) {
			report(lhs.Pos(), "map assignment may allocate")
		}
	}
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		if to := info.TypeOf(lhs); to != nil {
			checkBoxing(info, assign.Rhs[i], to, report)
		}
	}
}

func isMapIndex(info *types.Info, idx *ast.IndexExpr) bool {
	t := info.TypeOf(idx.X)
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// checkCallBoxing compares arguments against a known callee signature
// and flags implicit interface conversions that box.
func checkCallBoxing(info *types.Info, fn *types.Func, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || call.Ellipsis != token.NoPos {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var to types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			to = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			to = params.At(i).Type()
		default:
			continue
		}
		checkBoxing(info, arg, to, report)
	}
}

// checkReturnBoxing flags returns that box a concrete value into an
// interface result.
func checkReturnBoxing(info *types.Info, sig *types.Signature, ret *ast.ReturnStmt, report func(token.Pos, string, ...any)) {
	if sig == nil || sig.Results().Len() != len(ret.Results) {
		return
	}
	for i, res := range ret.Results {
		checkBoxing(info, res, sig.Results().At(i).Type(), report)
	}
}

// checkBoxing reports expr if assigning it to type to would box a
// non-pointer-shaped concrete value into an interface. Constants are
// exempt: the compiler folds them into static storage.
func checkBoxing(info *types.Info, expr ast.Expr, to types.Type, report func(token.Pos, string, ...any)) {
	if to == nil || !types.IsInterface(to.Underlying()) {
		return
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Value != nil {
		return
	}
	from := tv.Type
	if from == nil || types.IsInterface(from.Underlying()) {
		return
	}
	if basic, ok := from.(*types.Basic); ok && basic.Kind() == types.UntypedNil {
		return
	}
	if isPointerShaped(from) {
		return
	}
	report(expr.Pos(), "implicit conversion of %s to interface boxes and allocates", types.TypeString(from, nil))
}

// isPointerShaped reports whether values of t fit in an interface word
// without allocation.
func isPointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}

// enclosingSignature finds the signature governing a return statement:
// the innermost func literal containing pos, or the declared function.
func enclosingSignature(info *types.Info, node *FuncNode, lits []*ast.FuncLit, pos token.Pos) *types.Signature {
	var innermost *ast.FuncLit
	for _, lit := range lits {
		if lit.Pos() <= pos && pos < lit.End() {
			if innermost == nil || lit.Pos() > innermost.Pos() {
				innermost = lit
			}
		}
	}
	if innermost != nil {
		sig, _ := info.TypeOf(innermost).(*types.Signature)
		return sig
	}
	sig, _ := node.Pkg.Info.Defs[node.Decl.Name].(*types.Func).Type().(*types.Signature)
	return sig
}

// capturedVars lists the variables a func literal captures from its
// enclosing function, sorted by name. Package-level variables are free
// to reference; parameters and locals of enclosing scopes force a heap
// allocation for the closure.
func capturedVars(info *types.Info, lit *ast.FuncLit) []string {
	defined := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				defined[obj] = true
			}
		}
		return true
	})
	// Parameters and named results of the literal itself.
	if sig, ok := info.TypeOf(lit).(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			defined[sig.Params().At(i)] = true
		}
		for i := 0; i < sig.Results().Len(); i++ {
			defined[sig.Results().At(i)] = true
		}
	}
	captured := map[string]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || defined[v] || v.IsField() {
			return true
		}
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true // package-level variable
		}
		captured[v.Name()] = true
		return true
	})
	names := make([]string, 0, len(captured))
	for name := range captured {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
