package analysis

import (
	"go/ast"
	"go/types"
)

// GuardedBy enforces lock discipline on fields annotated
// //rtlint:guardedby <mutex>: every access must happen while the
// sibling mutex is held on the same base path (tn.adm needs tn.mu,
// s.tenants needs s.mu).
//
// Held locks are tracked per function by a small branch-aware abstract
// interpretation over the statement tree:
//
//   - x.Lock() / x.RLock() add the lock path, x.Unlock() / x.RUnlock()
//     remove it; deferred unlocks keep the lock held to function end;
//   - if/switch/select branches are walked on copies of the held set,
//     and a branch that terminates (return, break, continue, panic)
//     does not leak its lock effects into the code after the branch —
//     the unlock-and-return error pattern stays precise;
//   - loop bodies are walked on a copy: a lock acquired inside an
//     iteration is not assumed held after the loop;
//   - //rtlint:holds p.mu on a function seeds its entry state, and the
//     analyzer checks every call site passes a locked value;
//   - //rtlint:acquires mu on a function marks lock handoff through
//     its first result: callers hold result.mu after the call.
//
// Approximations (documented in DESIGN.md): lock paths are compared
// textually (types.ExprString), func literals inherit the ambient held
// set, and RLock counts as held without distinguishing read from write
// access.
var GuardedBy = &Analyzer{
	Name: "guardedby",
	Doc:  "fields annotated //rtlint:guardedby may only be accessed with the lock held",
	Run:  runGuardedBy,
}

func runGuardedBy(pass *Pass) {
	if len(pass.Ann.Guarded) == 0 {
		return
	}
	for _, node := range pass.Graph.Nodes() {
		held := map[string]bool{}
		for _, path := range pass.Ann.Holds[node.Fn] {
			held[path] = true
		}
		w := &lockWalker{pass: pass, node: node}
		w.walkStmts(node.Decl.Body.List, held)
	}
}

type lockWalker struct {
	pass *Pass
	node *FuncNode
}

// mutexOps classifies the sync lock/unlock methods by FullName.
var mutexOps = map[string]int{
	"(*sync.Mutex).Lock":      opLock,
	"(*sync.Mutex).TryLock":   opNone, // result-dependent; not tracked
	"(*sync.Mutex).Unlock":    opUnlock,
	"(*sync.RWMutex).Lock":    opLock,
	"(*sync.RWMutex).Unlock":  opUnlock,
	"(*sync.RWMutex).RLock":   opLock,
	"(*sync.RWMutex).RUnlock": opUnlock,
}

const (
	opNone = iota
	opLock
	opUnlock
)

// lockOp classifies call as a mutex operation and returns the lock
// path ("s.mu") it applies to.
func (w *lockWalker) lockOp(call *ast.CallExpr) (string, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", opNone
	}
	fn, ok := w.node.Pkg.Info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return "", opNone
	}
	op, ok := mutexOps[fn.FullName()]
	if !ok || op == opNone {
		return "", opNone
	}
	return types.ExprString(ast.Unparen(sel.X)), op
}

// walkStmts interprets a statement list against the held-lock set,
// mutating held in place. It reports whether the list always
// terminates the enclosing flow (return/branch/panic), in which case
// its lock effects must not leak to the code after it.
func (w *lockWalker) walkStmts(stmts []ast.Stmt, held map[string]bool) bool {
	for _, stmt := range stmts {
		if w.walkStmt(stmt, held) {
			return true
		}
	}
	return false
}

func (w *lockWalker) walkStmt(stmt ast.Stmt, held map[string]bool) bool {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if w.applyCall(call, held) {
				return true // panic()
			}
			return false
		}
		w.checkExpr(s.X, held)
	case *ast.AssignStmt:
		for _, rhs := range s.Rhs {
			w.checkExpr(rhs, held)
		}
		for _, lhs := range s.Lhs {
			w.checkExpr(lhs, held)
		}
		w.applyAcquires(s, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.DeferStmt:
		w.applyDefer(s, held)
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			w.checkExpr(r, held)
		}
		return true
	case *ast.BranchStmt:
		return true
	case *ast.IfStmt:
		return w.walkIf(s, held)
	case *ast.ForStmt:
		if s.Init != nil {
			w.walkStmt(s.Init, held)
		}
		if s.Cond != nil {
			w.checkExpr(s.Cond, held)
		}
		body := copyHeld(held)
		w.walkStmts(s.Body.List, body)
		if s.Post != nil {
			w.walkStmt(s.Post, body)
		}
	case *ast.RangeStmt:
		w.checkExpr(s.X, held)
		body := copyHeld(held)
		w.walkStmts(s.Body.List, body)
	case *ast.SwitchStmt:
		return w.walkCases(s.Init, s.Tag, s.Body, held)
	case *ast.TypeSwitchStmt:
		return w.walkCases(s.Init, nil, s.Body, held)
	case *ast.SelectStmt:
		return w.walkCases(nil, nil, s.Body, held)
	case *ast.BlockStmt:
		return w.walkStmts(s.List, held)
	case *ast.LabeledStmt:
		return w.walkStmt(s.Stmt, held)
	case *ast.GoStmt:
		w.checkExpr(s.Call, held)
	case *ast.SendStmt:
		w.checkExpr(s.Chan, held)
		w.checkExpr(s.Value, held)
	case *ast.IncDecStmt:
		w.checkExpr(s.X, held)
	}
	return false
}

// applyCall handles a call in statement position: lock-set effects,
// panic termination, and the usual access checks.
func (w *lockWalker) applyCall(call *ast.CallExpr, held map[string]bool) (terminates bool) {
	if path, op := w.lockOp(call); op != opNone {
		switch op {
		case opLock:
			held[path] = true
		case opUnlock:
			delete(held, path)
		}
		return false
	}
	w.checkExpr(call, held)
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := w.node.Pkg.Info.Uses[id].(*types.Builtin); ok && b.Name() == "panic" {
			return true
		}
	}
	return false
}

// applyDefer interprets a defer: a deferred unlock keeps the lock held
// for the rest of the function (it releases after every access we will
// check); any other deferred call is checked against the current held
// set as an approximation of the at-return state.
func (w *lockWalker) applyDefer(s *ast.DeferStmt, held map[string]bool) {
	if _, op := w.lockOp(s.Call); op == opUnlock {
		return
	}
	w.checkExpr(s.Call, held)
}

// walkIf interprets an if statement: each branch runs on its own copy
// of the held set, and only the branches that fall through contribute
// to the state after the statement.
func (w *lockWalker) walkIf(s *ast.IfStmt, held map[string]bool) bool {
	if s.Init != nil {
		w.walkStmt(s.Init, held)
	}
	w.checkExpr(s.Cond, held)
	thenHeld := copyHeld(held)
	thenTerm := w.walkStmts(s.Body.List, thenHeld)
	elseHeld := copyHeld(held)
	elseTerm := false
	if s.Else != nil {
		elseTerm = w.walkStmt(s.Else, elseHeld)
	}
	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		replaceHeld(held, elseHeld)
	case elseTerm:
		replaceHeld(held, thenHeld)
	default:
		replaceHeld(held, intersectHeld(thenHeld, elseHeld))
	}
	return false
}

// walkCases interprets switch/type-switch/select bodies: every clause
// runs on a copy, and the state after the statement is the
// intersection of the fall-through outcomes (plus the entry state when
// no default clause exists).
func (w *lockWalker) walkCases(init ast.Stmt, tag ast.Expr, body *ast.BlockStmt, held map[string]bool) bool {
	if init != nil {
		w.walkStmt(init, held)
	}
	if tag != nil {
		w.checkExpr(tag, held)
	}
	var outcomes []map[string]bool
	hasDefault := false
	for _, clause := range body.List {
		var stmts []ast.Stmt
		switch c := clause.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				w.checkExpr(e, held)
			}
			hasDefault = hasDefault || c.List == nil
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				w.walkStmt(c.Comm, held)
			}
			hasDefault = hasDefault || c.Comm == nil
			stmts = c.Body
		}
		ch := copyHeld(held)
		if !w.walkStmts(stmts, ch) {
			outcomes = append(outcomes, ch)
		}
	}
	if !hasDefault {
		outcomes = append(outcomes, copyHeld(held))
	}
	if len(outcomes) == 0 {
		return true
	}
	merged := outcomes[0]
	for _, o := range outcomes[1:] {
		merged = intersectHeld(merged, o)
	}
	replaceHeld(held, merged)
	return false
}

// applyAcquires handles lock handoff: tn, err := s.grab(...) where
// grab is annotated //rtlint:acquires mu leaves tn.mu held.
func (w *lockWalker) applyAcquires(assign *ast.AssignStmt, held map[string]bool) {
	if len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
		return
	}
	call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	targets := w.pass.Graph.Resolve(w.node.Pkg, call)
	if targets.Static == nil {
		return
	}
	mutex, ok := w.pass.Ann.Acquires[targets.Static.Fn]
	if !ok {
		return
	}
	lhs := ast.Unparen(assign.Lhs[0])
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	held[types.ExprString(lhs)+"."+mutex] = true
}

// checkExpr reports guarded-field accesses in expr that lack their
// lock, and enforces //rtlint:holds contracts at call sites. Func
// literals are walked with the ambient held set.
func (w *lockWalker) checkExpr(expr ast.Expr, held map[string]bool) {
	if expr == nil {
		return
	}
	info := w.node.Pkg.Info
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			sel, ok := info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				return true
			}
			field, ok := sel.Obj().(*types.Var)
			if !ok {
				return true
			}
			guard, ok := w.pass.Ann.Guarded[field]
			if !ok {
				return true
			}
			path := types.ExprString(ast.Unparen(n.X)) + "." + guard.Name()
			if !held[path] {
				w.pass.Reportf(n.Sel.Pos(), "access to guarded field %s requires %s held", types.ExprString(n), path)
			}
		case *ast.CallExpr:
			w.checkHoldsContract(n, held)
		case *ast.FuncLit:
			w.walkStmts(n.Body.List, copyHeld(held))
			return false
		}
		return true
	})
}

// checkHoldsContract verifies that a call to a //rtlint:holds-annotated
// function passes its locked parameter with the lock actually held.
func (w *lockWalker) checkHoldsContract(call *ast.CallExpr, held map[string]bool) {
	targets := w.pass.Graph.Resolve(w.node.Pkg, call)
	if targets.Static == nil {
		return
	}
	fn := targets.Static.Fn
	paths := w.pass.Ann.Holds[fn]
	if len(paths) == 0 {
		return
	}
	sig := fn.Type().(*types.Signature)
	for _, path := range paths {
		base, mutex, _ := cutLast(path, ".")
		arg := w.argForParam(call, sig, base)
		if arg == nil {
			continue
		}
		need := types.ExprString(ast.Unparen(arg)) + "." + mutex
		if !held[need] {
			w.pass.Reportf(call.Pos(), "call to %s requires %s held (declared //rtlint:holds %s)", fn.Name(), need, path)
		}
	}
}

// argForParam maps a callee parameter (or receiver) name to the
// argument expression at this call site.
func (w *lockWalker) argForParam(call *ast.CallExpr, sig *types.Signature, name string) ast.Expr {
	if recv := sig.Recv(); recv != nil && recv.Name() == name {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			return sel.X
		}
		return nil
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if sig.Params().At(i).Name() == name && i < len(call.Args) {
			return call.Args[i]
		}
	}
	return nil
}

func copyHeld(held map[string]bool) map[string]bool {
	out := make(map[string]bool, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func replaceHeld(dst, src map[string]bool) {
	for k := range dst {
		delete(dst, k)
	}
	for k, v := range src {
		dst[k] = v
	}
}

func intersectHeld(a, b map[string]bool) map[string]bool {
	out := map[string]bool{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}
