package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildRtlint compiles the linter once into a temp dir and returns
// the binary path.
func buildRtlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "rtlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building rtlint: %v\n%s", err, out)
	}
	return bin
}

func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestSeededViolations runs the built linter against a temp module
// holding one violation per analyzer and asserts the exact
// diagnostics and the nonzero exit code.
func TestSeededViolations(t *testing.T) {
	bin := buildRtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/exp/exp.go": `package exp

import (
	"fmt"
	"io"
	"time"
)

func Stamp() int64 { return time.Now().UnixNano() }

func Dump(w io.Writer, m map[int]string) {
	for k, v := range m {
		fmt.Fprintf(w, "%d=%s\n", k, v)
	}
}
`,
		"internal/dbf/dbf.go": `package dbf

func Demand(n, c int64) int64 { return n * c }

func Feasible(a, b float64) bool { return a == b }
`,
	})

	out, err := exec.Command(bin, "-dir", dir).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("want exit error, got err=%v\n%s", err, out)
	}
	if code := ee.ExitCode(); code != 1 {
		t.Fatalf("exit code = %d, want 1\n%s", code, out)
	}

	text := string(out)
	for _, want := range []string{
		"internal/exp/exp.go:9:34: [determinism] time.Now reads the wall clock",
		"internal/exp/exp.go:12:2: [determinism] map iteration order is nondeterministic",
		"internal/exp/exp.go:13:3: [errsink] error result of fmt.Fprintf discarded",
		"internal/dbf/dbf.go:3:42: [overflowguard] unchecked int64 multiplication",
		"internal/dbf/dbf.go:5:45: [floatexact] float comparison in exact-arithmetic code",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\noutput:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "rtlint: 5 finding(s)") {
		t.Errorf("output missing summary line\noutput:\n%s", text)
	}
}

// TestCleanModule asserts a module whose only wall-clock read carries
// a used directive exits 0 with no findings.
func TestCleanModule(t *testing.T) {
	bin := buildRtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"cmd/tool/main.go": `package main

import (
	"fmt"
	"os"
	"time"
)

func main() {
	start := time.Now() //rtlint:allow determinism -- wall-clock timer for operator feedback
	work()
	//rtlint:allow determinism -- wall-clock timer for operator feedback
	elapsed := time.Since(start)
	if _, err := fmt.Fprintln(os.Stderr, elapsed); err != nil {
		os.Exit(1)
	}
}

func work() {}
`,
	})

	out, err := exec.Command(bin, "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("want exit 0, got %v\n%s", err, out)
	}
	if strings.Contains(string(out), "[") {
		t.Errorf("unexpected findings:\n%s", out)
	}
}

// TestSeededInterproceduralViolations seeds one violation per module
// analyzer — an allocation on a hot path, an unlocked guarded-field
// access, an arena alias escaping an exported API — and asserts the
// driver reports all three and exits 1.
func TestSeededInterproceduralViolations(t *testing.T) {
	bin := buildRtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/hot/hot.go": `package hot

//rtlint:hotpath -- seeded gate root
func Loop() {
	for i := 0; i < 8; i++ {
		sink(make([]int, i))
	}
}

func sink(s []int) {}
`,
		"internal/gd/gd.go": `package gd

import "sync"

type box struct {
	mu sync.Mutex
	//rtlint:guardedby mu
	n int
}

func bump(b *box) {
	b.n++
}

func locked(b *box) {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}
`,
		"internal/ar/ar.go": `package ar

type pool struct {
	//rtlint:arena
	buf []int
}

func (p *pool) Expose() []int {
	return p.buf
}
`,
	})

	out, err := exec.Command(bin, "-dir", dir).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got err=%v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"[hotalloc] make allocates (hot path from root hot.Loop)",
		"[guardedby] access to guarded field b.n requires b.mu held",
		"[arenaescape] arena-aliasing value returned from exported Expose escapes its owner",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\noutput:\n%s", want, text)
		}
	}
	if !strings.Contains(text, "rtlint: 3 finding(s)") {
		t.Errorf("output missing summary line\noutput:\n%s", text)
	}
}

// TestLoadErrorExitCode asserts a module that fails to type-check is a
// usage-class failure (exit 2), distinct from findings (exit 1).
func TestLoadErrorExitCode(t *testing.T) {
	bin := buildRtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/broken/broken.go": `package broken

func f() int { return undefinedName }
`,
	})

	out, err := exec.Command(bin, "-dir", dir).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "rtlint:") {
		t.Errorf("load failure did not report an error:\n%s", out)
	}
}

// TestBadFlagExitCode asserts flag-parse failures exit 2.
func TestBadFlagExitCode(t *testing.T) {
	bin := buildRtlint(t)
	out, err := exec.Command(bin, "-no-such-flag").CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2, got err=%v\n%s", err, out)
	}
}

// TestMissingDirExitCode asserts a nonexistent module root exits 2.
func TestMissingDirExitCode(t *testing.T) {
	bin := buildRtlint(t)
	out, err := exec.Command(bin, "-dir", filepath.Join(t.TempDir(), "nope")).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("want exit 2, got err=%v\n%s", err, out)
	}
}

// TestStaleDirectiveFails asserts an unused directive is itself a
// finding: exemptions cannot rot silently.
func TestStaleDirectiveFails(t *testing.T) {
	bin := buildRtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/core/core.go": `package core

//rtlint:allow determinism -- nothing here needs it
func Pure(x int) int { return x + 1 }
`,
	})

	out, err := exec.Command(bin, "-dir", dir).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got err=%v\n%s", err, out)
	}
	if !strings.Contains(string(out), "suppresses nothing") {
		t.Errorf("output missing stale-directive finding:\n%s", out)
	}
}

// TestReachGate builds a small module's binary without inlining and
// runs the reachability gate over it. Generic functions and methods
// on generic types are linked only under instantiated names, so they
// stay silent only if the symbols normalize to their declarations.
// An allowed unlinked function stays silent; an unlinked function, one
// that only a _test.go file calls, and a reach allow that covers a
// linked function are reported. A lint run does not judge the reach
// allow, since only a -reach run can use it.
func TestReachGate(t *testing.T) {
	bin := buildRtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"internal/lib/lib.go": `package lib

func Map[T any](xs []T, f func(T) T) []T {
	out := make([]T, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

type Stack[E any] struct{ es []E }

func (s *Stack[E]) Push(e E) { s.es = append(s.es, e) }

func (s *Stack[E]) Len() int { return len(s.es) }

//rtlint:allow reach -- reference: nothing needs this allow
func Used() int { return 1 }

func Unused() int { return 2 }

func OnlyTest() int { return 3 }

//rtlint:allow reach -- reference: the oracle the tests compare Used against
func Oracle() int { return 1 }
`,
		"internal/lib/lib_test.go": `package lib

import "testing"

func TestOnly(t *testing.T) {
	if OnlyTest() != 3 || Oracle() != Used() {
		t.Fatal("bad")
	}
}
`,
		"cmd/tool/main.go": `package main

import (
	"fmt"

	"tmpmod/internal/lib"
)

func main() {
	s := &lib.Stack[string]{}
	s.Push("a")
	fmt.Println(lib.Map([]int{1, 2}, func(x int) int { return x * 2 }), s.Len(), lib.Used())
}

func notShipped() {}
`,
	})
	tool := filepath.Join(t.TempDir(), "tool")
	build := exec.Command("go", "build", "-gcflags=all=-l", "-o", tool, "./cmd/tool")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the module's binary: %v\n%s", err, out)
	}

	out, err := exec.Command(bin, "-dir", dir, "-reach", tool).CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit 1, got err=%v\n%s", err, out)
	}
	text := string(out)
	for _, want := range []string{
		"internal/lib/lib.go:17:1: [directive] rtlint:allow reach suppresses nothing; delete the stale directive",
		"internal/lib/lib.go:20:1: [reach] Unused is linked into no shipped binary",
		"internal/lib/lib.go:22:1: [reach] OnlyTest is linked into no shipped binary",
		"rtlint: reach: 3 function(s) of 3 line(s) linked into none of 1 binaries",
		"rtlint: 3 finding(s)",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q\noutput:\n%s", want, text)
		}
	}
	for _, silent := range []string{"Map", "Push", "Len", "Oracle", "notShipped"} {
		if strings.Contains(text, "[reach] "+silent) {
			t.Errorf("%s reported as unlinked\noutput:\n%s", silent, text)
		}
	}

	out, err = exec.Command(bin, "-dir", dir).CombinedOutput()
	if err != nil {
		t.Fatalf("lint run judged the reach allows: %v\n%s", err, out)
	}
}

// TestReachUsage asserts -reach and binary arguments come together,
// and that an argument that is not an executable is a usage failure.
func TestReachUsage(t *testing.T) {
	bin := buildRtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod":      "module tmpmod\n\ngo 1.22\n",
		"lib/lib.go":  "package lib\n",
		"notes/x.txt": "not a binary\n",
	})
	for _, args := range [][]string{
		{"-dir", dir, "-reach"},
		{"-dir", dir, filepath.Join(dir, "notes/x.txt")},
		{"-dir", dir, "-reach", filepath.Join(dir, "notes/x.txt")},
	} {
		out, err := exec.Command(bin, args...).CombinedOutput()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Errorf("%q: want exit 2, got err=%v\n%s", args, err, out)
		}
	}
}
