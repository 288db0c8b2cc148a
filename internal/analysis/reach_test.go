package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNormalizeSymbol pins the linker-symbol → declaration mapping:
// generic instantiations (nested, with quoted struct tags), methods on
// generic types, pointer receivers, closures, defer/go wrappers,
// method values and numbered inits all land on the declaration that
// produced them.
func TestNormalizeSymbol(t *testing.T) {
	cases := []struct{ sym, want string }{
		{"rtoffload/internal/core.Decide", "rtoffload/internal/core.Decide"},
		{"rtoffload.Version", "rtoffload.Version"},
		// Generic function, nested brackets and a quoted tag holding
		// a bracket.
		{`rtoffload/internal/parallel.Map[go.shape.struct { Cell int "json:\"cell]\""; W [4]float64 }]`, "rtoffload/internal/parallel.Map"},
		{"rtoffload/internal/core.removeAt[go.shape.struct { a []rtoffload/internal/dbf.Demand }]", "rtoffload/internal/core.removeAt"},
		// Method on a generic type, pointer receiver.
		{"rtoffload/internal/sched/eventq.(*Heap[go.shape.int]).Push", "rtoffload/internal/sched/eventq.Heap.Push"},
		{"rtoffload/internal/core.(*Admission).Add", "rtoffload/internal/core.Admission.Add"},
		{"rtoffload/internal/fleet.Fleet.Validate", "rtoffload/internal/fleet.Fleet.Validate"},
		// Closures, nested closures, closures of generic functions.
		{"rtoffload/internal/analysis.DefaultTargets.func1", "rtoffload/internal/analysis.DefaultTargets"},
		{"rtoffload/internal/analysis.RunModule.func1.1", "rtoffload/internal/analysis.RunModule"},
		{"rtoffload/internal/parallel.Map[go.shape.[]float64].func3.deferwrap1", "rtoffload/internal/parallel.Map"},
		// Defer and go wrappers, method values, range-func bodies.
		{"rtoffload/internal/admitd.(*Service).Decision.deferwrap1", "rtoffload/internal/admitd.Service.Decision"},
		{"rtoffload/internal/parallel.Map[go.shape.int].gowrap1", "rtoffload/internal/parallel.Map"},
		{"rtoffload/internal/admitd.(*Service).handleAdmit-fm", "rtoffload/internal/admitd.Service.handleAdmit"},
		{"rtoffload/internal/exp.sweep-range1", "rtoffload/internal/exp.sweep"},
		// Numbered init functions map to init.
		{"rtoffload/internal/admitd.init.0", "rtoffload/internal/admitd.init"},
	}
	for _, tc := range cases {
		if got := normalizeSymbol(tc.sym); got != tc.want {
			t.Errorf("normalizeSymbol(%q) = %q, want %q", tc.sym, got, tc.want)
		}
	}
}

// TestReachKey pins the declaration side of the mapping, which must
// agree with normalizeSymbol.
func TestReachKey(t *testing.T) {
	src := `package p

func F() {}
func G[T any](x T) {}
type T struct{}
func (T) M() {}
func (*T) P() {}
type L[K comparable, V any] struct{}
func (l *L[K, V]) Get() {}
type H[E any] []E
func (h H[E]) Len() int { return len(h) }
`
	f, err := parser.ParseFile(token.NewFileSet(), "p.go", src, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			got = append(got, reachKey("mod/p", fd))
		}
	}
	want := []string{"mod/p.F", "mod/p.G", "mod/p.T.M", "mod/p.T.P", "mod/p.L.Get", "mod/p.H.Len"}
	if len(got) != len(want) {
		t.Fatalf("keys = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("key %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestReachAllowsAreReachOnly asserts a reach allow stands alone: it
// cannot share a directive with another analyzer, and a lint run does
// not judge it stale.
func TestReachAllowsAreReachOnly(t *testing.T) {
	if d := parseDirective("allow reach,determinism -- shared"); d.problem == "" {
		t.Error("reach combined with another analyzer was accepted")
	}
	src := `package p

//rtlint:allow reach -- reference: test oracle
func F() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := ParseDirectives(fset, []*ast.File{f})
	if probs := ds.Problems(); len(probs) != 0 {
		t.Errorf("lint judged an unused reach allow: %v", probs)
	}
	if stale := ds.staleAllows(Reach.Name); len(stale) != 1 {
		t.Errorf("reach judged %d stale allows, want 1", len(stale))
	}
}

// TestLinkedFuncs builds a small module's binary without inlining and
// reads its symbol table: the functions it links come back under
// their declaration names, generic ones included, and a function it
// does not link is absent. A stripped binary and a file that is no
// executable are errors, never an empty linked set.
func TestLinkedFuncs(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"lib/lib.go": `package lib

func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

func Unused() int { return 1 }
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"tmpmod/lib"
)

func main() { fmt.Println(lib.Map([]int{1}, func(x int) int { return x + 1 })) }
`,
	})
	build := func(out string, flags ...string) string {
		bin := filepath.Join(t.TempDir(), out)
		cmd := exec.Command("go", append(append([]string{"build"}, flags...), "-o", bin, "./cmd/tool")...)
		cmd.Dir = dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go build: %v\n%s", err, msg)
		}
		return bin
	}
	linked, err := LinkedFuncs("tmpmod", []string{build("tool", "-gcflags=all=-l")})
	if err != nil {
		t.Fatal(err)
	}
	if !linked["tmpmod/lib.Map"] {
		t.Errorf("linked set %v lacks lib.Map", linked)
	}
	if linked["tmpmod/lib.Unused"] {
		t.Error("lib.Unused reported linked")
	}
	for name := range linked {
		if !strings.HasPrefix(name, "tmpmod/") || strings.ContainsAny(name, "[]()*") {
			t.Errorf("linked name %q is outside the module or not normalized", name)
		}
	}
	if _, err := LinkedFuncs("tmpmod", []string{build("stripped", "-ldflags=-s")}); err == nil || !strings.Contains(err.Error(), "no symbol table") {
		t.Errorf("stripped binary: err = %v, want no-symbol-table error", err)
	}
	if _, err := LinkedFuncs("tmpmod", []string{filepath.Join(dir, "go.mod")}); err == nil {
		t.Error("go.mod was read as an executable")
	}
}

// TestRunReach drives the gate over a loaded module with a given
// linked set: unlinked functions are reported at their declarations,
// function and package-clause allows silence them, main packages are
// never judged, and an allow that covers nothing is stale.
func TestRunReach(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"lib/lib.go": `package lib

func Used() {}

func Unused() {}

//rtlint:allow reach -- reference: the oracle tests compare Used against
func Oracle() {}

//rtlint:allow reach -- reference: stale, Used is linked
func Twin() {}

type T[E any] struct{}

func (*T[E]) M() {}
`,
		"harness/h.go": `//rtlint:allow reach -- harness: property harness the tests run
package harness

func Run() {}
`,
		"linkedpkg/l.go": `//rtlint:allow reach -- harness: stale, everything here is linked
package linkedpkg

func Run() {}
`,
		"cmd/tool/main.go": "package main\n\nfunc main() {}\n\nfunc helper() {}\n",
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{
		"tmpmod/lib.Used":      true,
		"tmpmod/lib.Twin":      true,
		"tmpmod/lib.T.M":       true,
		"tmpmod/linkedpkg.Run": true,
	}
	diags, stats := RunReach(mod, linked)
	var got []string
	for _, d := range diags {
		rel, _ := filepath.Rel(dir, d.Pos.Filename)
		got = append(got, fmt.Sprintf("%s:%d [%s]", filepath.ToSlash(rel), d.Pos.Line, d.Analyzer))
	}
	want := []string{
		"lib/lib.go:5 [reach]",
		"lib/lib.go:10 [directive]",
		"linkedpkg/l.go:1 [directive]",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if stats.Unlinked != 3 || stats.Lines != 3 {
		t.Errorf("stats = %+v, want 3 unlinked functions of 3 lines (Unused, Oracle, harness.Run)", stats)
	}
}
