package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Annotations is the module-wide view of the declaration-binding
// directives: which functions are hot-path roots, which struct fields
// are lock-guarded or arena scratch, and which functions transfer lock
// ownership across their signature.
type Annotations struct {
	// Hotpath holds the //rtlint:hotpath root functions.
	Hotpath map[*types.Func]bool
	// Guarded maps a struct field to the sibling mutex field that must
	// be held to touch it (//rtlint:guardedby <mutex>).
	Guarded map[*types.Var]*types.Var
	// Arena marks scratch-arena struct fields (//rtlint:arena).
	Arena map[*types.Var]bool
	// Holds maps a function to the lock paths its caller must hold,
	// e.g. "tn.mu" where tn is a parameter (//rtlint:holds tn.mu).
	Holds map[*types.Func][]string
	// Acquires maps a function to the mutex field name of its first
	// result that is held when the function returns without error
	// (//rtlint:acquires <mutex>).
	Acquires map[*types.Func]string
}

func newAnnotations() *Annotations {
	return &Annotations{
		Hotpath:  map[*types.Func]bool{},
		Guarded:  map[*types.Var]*types.Var{},
		Arena:    map[*types.Var]bool{},
		Holds:    map[*types.Func][]string{},
		Acquires: map[*types.Func]string{},
	}
}

// bindPackage resolves the annotation directives of one package to the
// declarations they document, marking each bound directive used and
// reporting annotations whose target cannot carry them (unknown mutex
// sibling, non-mutex guard, holds path that names no parameter). An
// annotation that binds to nothing at all is reported later by
// DirectiveSet.Problems.
func (a *Annotations) bindPackage(pkg *Package, ds *DirectiveSet, sink func(Diagnostic)) {
	for _, file := range pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch decl := n.(type) {
			case *ast.FuncDecl:
				a.bindFunc(pkg, ds, sink, decl)
			case *ast.StructType:
				a.bindStruct(pkg, ds, sink, decl)
			}
			return true
		})
	}
}

// declDirectives finds the annotation directives with the given verb
// that document a declaration: covering its first line (written
// directly above or trailing on the same line) or written anywhere in
// its doc comment.
func declDirectives(ds *DirectiveSet, fset *token.FileSet, verb string, declPos token.Pos, doc *ast.CommentGroup) []*directive {
	seen := map[*directive]bool{}
	var out []*directive
	add := func(pos token.Position) {
		for _, d := range ds.annotationsAt(verb, pos.Filename, pos.Line) {
			if !seen[d] {
				seen[d] = true
				out = append(out, d)
			}
		}
	}
	add(fset.Position(declPos))
	if doc != nil {
		for _, c := range doc.List {
			add(fset.Position(c.Pos()))
		}
	}
	return out
}

func (a *Annotations) bindFunc(pkg *Package, ds *DirectiveSet, sink func(Diagnostic), decl *ast.FuncDecl) {
	fn, _ := pkg.Info.Defs[decl.Name].(*types.Func)
	if fn == nil {
		return
	}
	report := func(d *directive, format string, args ...any) {
		d.used = true
		sink(directiveDiag(d.pos, format, args...))
	}
	for _, d := range declDirectives(ds, pkg.Fset, "hotpath", decl.Pos(), decl.Doc) {
		if decl.Body == nil {
			report(d, "rtlint:hotpath root %s has no body to analyze", fn.Name())
			continue
		}
		d.used = true
		a.Hotpath[fn] = true
	}
	for _, d := range declDirectives(ds, pkg.Fset, "holds", decl.Pos(), decl.Doc) {
		path := d.args[0]
		if err := checkHoldsPath(fn, path); err != "" {
			report(d, "rtlint:holds %s: %s", path, err)
			continue
		}
		d.used = true
		a.Holds[fn] = append(a.Holds[fn], path)
	}
	for _, d := range declDirectives(ds, pkg.Fset, "acquires", decl.Pos(), decl.Doc) {
		mutex := d.args[0]
		if err := checkAcquiresResult(fn, mutex); err != "" {
			report(d, "rtlint:acquires %s: %s", mutex, err)
			continue
		}
		d.used = true
		a.Acquires[fn] = mutex
	}
}

// checkHoldsPath validates a holds path of the form <param>.<mutex>:
// the first segment must name a parameter (or the receiver) of fn and
// the second a mutex field of its struct type.
func checkHoldsPath(fn *types.Func, path string) string {
	base, mutex, ok := cutLast(path, ".")
	if !ok {
		return "path must be <param>.<mutex>"
	}
	sig := fn.Type().(*types.Signature)
	var owner *types.Var
	if recv := sig.Recv(); recv != nil && recv.Name() == base {
		owner = recv
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); p.Name() == base {
			owner = p
		}
	}
	if owner == nil {
		return base + " names no parameter of " + fn.Name()
	}
	return lookupMutexField(owner.Type(), mutex)
}

// checkAcquiresResult validates that fn's first result is a struct (or
// pointer to one) with the named mutex field.
func checkAcquiresResult(fn *types.Func, mutex string) string {
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() == 0 {
		return fn.Name() + " returns nothing"
	}
	return lookupMutexField(sig.Results().At(0).Type(), mutex)
}

// lookupMutexField checks that t (after pointer stripping) is a struct
// with a sync.Mutex/sync.RWMutex field of the given name; it returns a
// problem description or "".
func lookupMutexField(t types.Type, name string) string {
	st := structUnder(t)
	if st == nil {
		return types.TypeString(t, nil) + " is not a struct type"
	}
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if f.Name() != name {
			continue
		}
		if !isMutexType(f.Type()) {
			return name + " is not a sync.Mutex or sync.RWMutex field"
		}
		return ""
	}
	return name + " names no field of " + types.TypeString(t, nil)
}

func (a *Annotations) bindStruct(pkg *Package, ds *DirectiveSet, sink func(Diagnostic), st *ast.StructType) {
	report := func(d *directive, format string, args ...any) {
		d.used = true
		sink(directiveDiag(d.pos, format, args...))
	}
	for _, field := range st.Fields.List {
		doc := field.Doc
		if doc == nil {
			doc = field.Comment
		}
		for _, name := range field.Names {
			fv, _ := pkg.Info.Defs[name].(*types.Var)
			if fv == nil {
				continue
			}
			for _, d := range declDirectives(ds, pkg.Fset, "arena", name.Pos(), doc) {
				d.used = true
				a.Arena[fv] = true
			}
			for _, d := range declDirectives(ds, pkg.Fset, "guardedby", name.Pos(), doc) {
				guard := findSiblingField(st, pkg, d.args[0])
				switch {
				case guard == nil:
					report(d, "rtlint:guardedby %s: %s names no sibling field of the struct", d.args[0], d.args[0])
				case !isMutexType(guard.Type()):
					report(d, "rtlint:guardedby %s: %s is not a sync.Mutex or sync.RWMutex field", d.args[0], d.args[0])
				default:
					d.used = true
					a.Guarded[fv] = guard
				}
			}
		}
	}
}

// findSiblingField resolves a field name inside the same struct
// literal the annotation sits in.
func findSiblingField(st *ast.StructType, pkg *Package, name string) *types.Var {
	for _, field := range st.Fields.List {
		for _, n := range field.Names {
			if n.Name == name {
				v, _ := pkg.Info.Defs[n].(*types.Var)
				return v
			}
		}
	}
	return nil
}

// structUnder strips pointers and returns the underlying struct type,
// or nil.
func structUnder(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// cutLast splits s at the last occurrence of sep.
func cutLast(s, sep string) (before, after string, found bool) {
	for i := len(s) - len(sep); i >= 0; i-- {
		if s[i:i+len(sep)] == sep {
			return s[:i], s[i+len(sep):], true
		}
	}
	return s, "", false
}

// directiveDiag builds a directive-analyzer diagnostic.
func directiveDiag(pos token.Position, format string, args ...any) Diagnostic {
	return Diagnostic{Pos: pos, Analyzer: directiveAnalyzer, Message: fmt.Sprintf(format, args...)}
}
