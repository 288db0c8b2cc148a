package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaEscape guards the aliasing hazard scratch arenas introduce:
// a value aliasing an //rtlint:arena field (solver scratch tables, the
// scheduler's job free-list) is only valid until its owner reuses the
// arena, so it must not outlive the call that borrowed it.
//
// Per function, a flow-insensitive taint analysis marks every local
// value derived from an arena field read — through selectors, index
// and slice expressions, address-of, conversions, append (which
// aliases its first argument's backing array), and calls to in-module
// helpers whose results alias their parameters (param-return alias
// summaries cover the growInts-style arena growers). Tainted values
// may circulate freely inside the owning package; the analyzer reports
// the escapes:
//
//   - returning a tainted value from an exported function or method
//     (unexported helpers returning scratch to their callers stay
//     inside the arena's ownership domain);
//   - storing a tainted value into a field of an untainted, non-arena
//     destination, or into a package-level variable;
//   - sending a tainted value on a channel;
//   - capturing a tainted variable in a func literal.
//
// Approximation boundaries (documented in DESIGN.md): taint only
// attaches to values whose type can hold a reference (scalar reads out
// of an arena are copies and stay clean), interface- and error-typed
// call results are never considered tainted, struct-typed results of
// callees are not tracked, and taint is per-variable rather than
// per-path — a variable tainted on any assignment is treated as
// tainted everywhere in the function.
var ArenaEscape = &Analyzer{
	Name: "arenaescape",
	Doc:  "values aliasing //rtlint:arena scratch must not escape their owner",
	Run:  runArenaEscape,
}

func runArenaEscape(pass *Pass) {
	if len(pass.Ann.Arena) == 0 {
		return
	}
	summaries := buildAliasSummaries(pass)
	for _, node := range pass.Graph.Nodes() {
		w := &taintWalker{pass: pass, node: node, summaries: summaries, tainted: map[*types.Var]bool{}}
		w.propagate()
		w.reportEscapes()
	}
}

// aliasSummary describes what a function's slice/pointer results may
// alias: parameters (growInts returns its argument resliced) and, for
// one interprocedural level, the arena fields the function reads
// itself (a helper returning s.buf[:n] taints its callers' results).
type aliasSummary struct {
	params map[*types.Var]bool
	arena  bool
}

// buildAliasSummaries computes, for every module function returning a
// slice or pointer, which parameters or arena fields its results may
// alias. Derivation is tracked through local variables by a per-
// function fixpoint, but not through further calls — one summary
// level, enough for the arena growth and borrow helpers.
func buildAliasSummaries(pass *Pass) map[*types.Func]*aliasSummary {
	out := map[*types.Func]*aliasSummary{}
	for _, node := range pass.Graph.Nodes() {
		sig := node.Fn.Type().(*types.Signature)
		aliasable := false
		for i := 0; i < sig.Results().Len(); i++ {
			if isAliasType(sig.Results().At(i).Type()) {
				aliasable = true
			}
		}
		if !aliasable {
			continue
		}
		params := map[*types.Var]bool{}
		if recv := sig.Recv(); recv != nil {
			params[recv] = true
		}
		for i := 0; i < sig.Params().Len(); i++ {
			params[sig.Params().At(i)] = true
		}
		info := node.Pkg.Info

		// derived maps each local to the parameters its value may
		// alias; derivedArena marks locals aliasing an arena field.
		derived := map[*types.Var]map[*types.Var]bool{}
		derivedArena := map[*types.Var]bool{}
		resolve := func(e ast.Expr) (map[*types.Var]bool, bool) {
			ps := map[*types.Var]bool{}
			arena := exprReadsArena(info, pass.Ann, e)
			for _, v := range baseVars(info, e) {
				if params[v] {
					ps[v] = true
				}
				for p := range derived[v] {
					ps[p] = true
				}
				arena = arena || derivedArena[v]
			}
			return ps, arena
		}
		for changed := true; changed; {
			changed = false
			ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
				assign, ok := n.(*ast.AssignStmt)
				if !ok || len(assign.Lhs) != len(assign.Rhs) {
					return true
				}
				for i, rhs := range assign.Rhs {
					id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident)
					if !ok {
						continue
					}
					v := lhsVar(info, id)
					if v == nil {
						continue
					}
					ps, arena := resolve(rhs)
					if arena && !derivedArena[v] {
						derivedArena[v] = true
						changed = true
					}
					for p := range ps {
						if derived[v] == nil {
							derived[v] = map[*types.Var]bool{}
						}
						if !derived[v][p] {
							derived[v][p] = true
							changed = true
						}
					}
				}
				return true
			})
		}

		summary := &aliasSummary{params: map[*types.Var]bool{}}
		ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, res := range ret.Results {
				ps, arena := resolve(res)
				summary.arena = summary.arena || arena
				for p := range ps {
					summary.params[p] = true
				}
			}
			return true
		})
		if summary.arena || len(summary.params) > 0 {
			out[node.Fn] = summary
		}
	}
	return out
}

// exprReadsArena reports whether expr itself dereferences an
// //rtlint:arena field (not counting derivation through locals).
func exprReadsArena(info *types.Info, ann *Annotations, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if f, ok := s.Obj().(*types.Var); ok && ann.Arena[f] {
				found = true
			}
		}
		return true
	})
	return found
}

// isAliasType reports whether values of t are direct aliases of arena
// memory: slices and pointers. Interfaces and structs are deliberately
// excluded (see the analyzer doc).
func isAliasType(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	}
	return false
}

// canCarryAlias reports whether values of t can hold a reference to
// arena memory at all. Pure value types — numbers, booleans, strings,
// and aggregates of them — are copied on assignment, so taint never
// flows through them.
func canCarryAlias(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Slice, *types.Pointer, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if canCarryAlias(u.Field(i).Type()) {
				return true
			}
		}
		return false
	case *types.Array:
		return canCarryAlias(u.Elem())
	}
	return true // tuples and the like: stay conservative
}

// baseVars lists the variables at the root of expr's aliasing chains.
// append is the one call it sees through (the result aliases the first
// argument's backing array); other calls end the chain.
func baseVars(info *types.Info, expr ast.Expr) []*types.Var {
	var out []*types.Var
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch e := ast.Unparen(e).(type) {
		case *ast.Ident:
			if v, ok := info.Uses[e].(*types.Var); ok {
				out = append(out, v)
			}
		case *ast.SelectorExpr:
			walk(e.X)
		case *ast.IndexExpr:
			walk(e.X)
		case *ast.SliceExpr:
			walk(e.X)
		case *ast.StarExpr:
			walk(e.X)
		case *ast.UnaryExpr:
			if e.Op == token.AND {
				walk(e.X)
			}
		case *ast.CallExpr:
			if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok && len(e.Args) > 0 {
				if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" {
					walk(e.Args[0])
				}
			}
		}
	}
	walk(expr)
	return out
}

type taintWalker struct {
	pass      *Pass
	node      *FuncNode
	summaries map[*types.Func]*aliasSummary
	tainted   map[*types.Var]bool
}

// propagate runs the assignment fixpoint: variables assigned from
// tainted expressions become tainted until the set stabilizes.
func (w *taintWalker) propagate() {
	info := w.node.Pkg.Info
	for changed := true; changed; {
		changed = false
		mark := func(v *types.Var) {
			if v != nil && !w.tainted[v] {
				w.tainted[v] = true
				changed = true
			}
		}
		ast.Inspect(w.node.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				w.propagateAssign(n, mark)
			case *ast.ValueSpec:
				for i, v := range n.Values {
					if w.taintedExpr(v) && i < len(n.Names) {
						mark(defVar(info, n.Names[i]))
					}
				}
			case *ast.RangeStmt:
				if w.taintedExpr(n.X) && n.Value != nil {
					if id, ok := n.Value.(*ast.Ident); ok {
						if v := defVar(info, id); v != nil && isAliasType(v.Type()) {
							mark(v)
						}
					}
				}
			}
			return true
		})
	}
}

func (w *taintWalker) propagateAssign(assign *ast.AssignStmt, mark func(*types.Var)) {
	info := w.node.Pkg.Info
	if len(assign.Lhs) == len(assign.Rhs) {
		for i, rhs := range assign.Rhs {
			if !w.taintedExpr(rhs) {
				continue
			}
			if id, ok := ast.Unparen(assign.Lhs[i]).(*ast.Ident); ok {
				mark(lhsVar(info, id))
			}
		}
		return
	}
	// Tuple assignment from one call: taint the alias-typed targets
	// when the call is tainted.
	if len(assign.Rhs) == 1 && w.taintedExpr(assign.Rhs[0]) {
		for _, lhs := range assign.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v := lhsVar(info, id); v != nil && isAliasType(v.Type()) {
					mark(v)
				}
			}
		}
	}
}

// lhsVar resolves an assignment target ident whether it defines (:=)
// or uses (=) the variable.
func lhsVar(info *types.Info, id *ast.Ident) *types.Var {
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

func defVar(info *types.Info, id *ast.Ident) *types.Var {
	v, _ := info.Defs[id].(*types.Var)
	return v
}

// taintedExpr reports whether expr may alias arena memory.
func (w *taintWalker) taintedExpr(expr ast.Expr) bool {
	info := w.node.Pkg.Info
	if t := info.TypeOf(expr); t != nil && !canCarryAlias(t) {
		// Scalar reads out of an arena (a job's remaining budget, a
		// cached profit) copy the value; they cannot alias its memory.
		return false
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		v, ok := info.Uses[e].(*types.Var)
		return ok && w.tainted[v]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if f, ok := sel.Obj().(*types.Var); ok && w.pass.Ann.Arena[f] {
				return true // source: arena field read
			}
		}
		return w.taintedExpr(e.X)
	case *ast.IndexExpr:
		return w.taintedExpr(e.X)
	case *ast.SliceExpr:
		return w.taintedExpr(e.X)
	case *ast.StarExpr:
		return w.taintedExpr(e.X)
	case *ast.UnaryExpr:
		return e.Op == token.AND && w.taintedExpr(e.X)
	case *ast.CallExpr:
		return w.taintedCall(e)
	}
	return false
}

// taintedCall decides whether a call result may alias arena memory:
// append aliases its first argument, conversions their operand,
// summarized in-module helpers their recorded parameters, and unknown
// slice/pointer-returning callees any argument (conservatively).
// Interface- and error-typed results are never tainted.
func (w *taintWalker) taintedCall(call *ast.CallExpr) bool {
	info := w.node.Pkg.Info
	targets := w.pass.Graph.Resolve(w.node.Pkg, call)
	switch {
	case targets.Builtin == "append":
		return len(call.Args) > 0 && w.taintedExpr(call.Args[0])
	case targets.Builtin != "":
		return false
	case targets.Conversion:
		return len(call.Args) == 1 && isAliasType(info.TypeOf(call.Fun)) && w.taintedExpr(call.Args[0])
	}
	if t := info.TypeOf(call); t == nil || !isAliasType(t) {
		return false
	}
	if targets.Static != nil {
		summary, ok := w.summaries[targets.Static.Fn]
		if !ok {
			return false // returns fresh memory on every path
		}
		if summary.arena {
			return true // callee hands out its own arena
		}
		sig := targets.Static.Fn.Type().(*types.Signature)
		if recv := sig.Recv(); recv != nil && summary.params[recv] {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && w.taintedExpr(sel.X) {
				return true
			}
		}
		for i, arg := range call.Args {
			if i < sig.Params().Len() && summary.params[sig.Params().At(i)] && w.taintedExpr(arg) {
				return true
			}
		}
		return false
	}
	// External or dynamic slice/pointer-returning call: conservative.
	for _, arg := range call.Args {
		if w.taintedExpr(arg) {
			return true
		}
	}
	return false
}

// reportEscapes scans the function for taint sinks.
func (w *taintWalker) reportEscapes() {
	info := w.node.Pkg.Info
	exported := ast.IsExported(w.node.Decl.Name.Name)
	ast.Inspect(w.node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ReturnStmt:
			if !exported {
				return true
			}
			for _, res := range n.Results {
				if w.taintedExpr(res) {
					w.pass.Reportf(res.Pos(), "arena-aliasing value returned from exported %s escapes its owner", w.node.Decl.Name.Name)
				}
			}
		case *ast.AssignStmt:
			w.checkStores(n)
		case *ast.SendStmt:
			if w.taintedExpr(n.Value) {
				w.pass.Reportf(n.Value.Pos(), "arena-aliasing value sent on a channel escapes its owner")
			}
		case *ast.FuncLit:
			w.checkCapture(n)
			return false
		}
		return true
	})
	_ = info
}

// checkStores flags stores of tainted values into destinations outside
// the arena: a field of an untainted base that is not itself an arena
// field, or a package-level variable. Stores back into arena fields
// (the growth idiom s.dp.w = growInts(s.dp.w, n)) and into fields of
// already-tainted bases stay inside the owner.
func (w *taintWalker) checkStores(assign *ast.AssignStmt) {
	info := w.node.Pkg.Info
	if len(assign.Lhs) != len(assign.Rhs) {
		return
	}
	for i, lhs := range assign.Lhs {
		if !w.taintedExpr(assign.Rhs[i]) {
			continue
		}
		switch l := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if w.arenaRooted(l) || w.taintedExpr(l.X) {
				continue
			}
			w.pass.Reportf(l.Pos(), "arena-aliasing value stored into non-arena field %s escapes its owner", types.ExprString(l))
		case *ast.Ident:
			if v, ok := info.Uses[l].(*types.Var); ok && v.Parent() != nil && v.Parent().Parent() == types.Universe {
				w.pass.Reportf(l.Pos(), "arena-aliasing value stored into package-level %s escapes its owner", l.Name)
			}
		}
	}
}

// arenaRooted reports whether the selector chain passes through an
// //rtlint:arena field — the destination lives inside the arena.
func (w *taintWalker) arenaRooted(expr ast.Expr) bool {
	info := w.node.Pkg.Info
	for {
		sel, ok := ast.Unparen(expr).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
			if f, ok := s.Obj().(*types.Var); ok && w.pass.Ann.Arena[f] {
				return true
			}
		}
		expr = sel.X
	}
}

// checkCapture flags func literals that capture tainted variables.
func (w *taintWalker) checkCapture(lit *ast.FuncLit) {
	info := w.node.Pkg.Info
	defined := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				defined[obj] = true
			}
		}
		return true
	})
	reported := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || defined[v] || !w.tainted[v] || reported[v] {
			return true
		}
		reported[v] = true
		w.pass.Reportf(id.Pos(), "closure captures arena-aliasing %s; the alias may outlive its owner", v.Name())
		return true
	})
}
