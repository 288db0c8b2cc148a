package analysis

import (
	"fmt"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadPackage parses and type-checks the single package in pkgDir
// (which may live under a testdata tree), resolving module-internal
// imports against the module rooted at modDir. relDir is the
// module-relative directory the package should pretend to live in, so
// scope-sensitive rules can be exercised from tests.
func loadPackage(modDir, pkgDir, relDir string) (*Package, error) {
	absMod, err := filepath.Abs(modDir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(absMod)
	if err != nil {
		return nil, err
	}
	l := newLoader(absMod, modPath)
	pkg, err := l.check(pkgDir, relDir)
	if err != nil {
		return nil, err
	}
	return pkg, nil
}

// runPackage runs the given analyzers over one loaded package,
// wrapped as a single-package module, and returns the findings,
// including directive problems (malformed, unknown analyzer, bound to
// nothing, suppresses nothing).
func runPackage(pkg *Package, analyzers ...*Analyzer) []Diagnostic {
	mod := &Module{Path: "rtoffload", Fset: pkg.Fset, Packages: []*Package{pkg}}
	diags, _ := Run(mod, analyzers, nil)
	return diags
}

// repoRoot walks up from the working directory to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// expectation is one `// want "regex"` comment: a diagnostic that
// must be reported on that line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
}

var quotedRe = regexp.MustCompile(`"((?:[^"\\]|\\.)*)"`)

// parseWants extracts the `// want "..."` expectations of a package.
// The marker may sit inside another comment (directive testdata
// embeds it), and one marker may carry several quoted regexes.
func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				idx := strings.Index(c.Text, "// want ")
				if idx < 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, m := range quotedRe.FindAllStringSubmatch(c.Text[idx:], -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("%s:%d: bad want regex %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, re: re, raw: m[1]})
				}
			}
		}
	}
	return wants
}

// loadGolden loads one testdata package pretending to live at relDir.
func loadGolden(t *testing.T, dir, relDir string) *Package {
	t.Helper()
	root := repoRoot(t)
	pkgDir := filepath.Join(root, "internal", "analysis", "testdata", "src", dir)
	pkg, err := loadPackage(root, pkgDir, relDir)
	if err != nil {
		t.Fatalf("loading %s: %v", dir, err)
	}
	return pkg
}

// checkGolden runs one analyzer, its scope widened to every file, over
// a testdata package pretending to live at relDir and diffs the
// findings against the want comments.
func checkGolden(t *testing.T, az *Analyzer, dir, relDir string) {
	t.Helper()
	pkg := loadGolden(t, dir, relDir)
	everyFile := *az
	everyFile.Scope = nil
	diffGolden(t, pkg, runPackage(pkg, &everyFile))
}

// diffGolden matches reported diagnostics against the package's want
// comments, failing on both unexpected and missing findings.
func diffGolden(t *testing.T, pkg *Package, diags []Diagnostic) {
	t.Helper()
	wants := parseWants(t, pkg)

	matched := map[*expectation]bool{}
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !matched[w] && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				matched[w] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !matched[w] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.raw)
		}
	}
}

func TestDeterminismGolden(t *testing.T) {
	checkGolden(t, Determinism, "determinism", "internal/exp")
}

// TestDeterminismMapRangeScope proves the map-range rule stays silent
// outside the output-producing packages.
func TestDeterminismMapRangeScope(t *testing.T) {
	checkGolden(t, Determinism, "detscope", "internal/core")
}

func TestFloatExactGolden(t *testing.T) {
	checkGolden(t, FloatExact, "floatexact", "internal/dbf")
}

func TestOverflowGuardGolden(t *testing.T) {
	checkGolden(t, OverflowGuard, "overflowguard", "internal/dbf")
}

func TestErrSinkGolden(t *testing.T) {
	checkGolden(t, ErrSink, "errsink", "internal/exp")
}

func TestDirectiveProblemsGolden(t *testing.T) {
	checkGolden(t, Determinism, "directives", "internal/exp")
}

func TestHotAllocGolden(t *testing.T) {
	checkGolden(t, HotAlloc, "hotalloc", "internal/hot")
}

func TestGuardedByGolden(t *testing.T) {
	checkGolden(t, GuardedBy, "guardedby", "internal/guard")
}

func TestArenaEscapeGolden(t *testing.T) {
	checkGolden(t, ArenaEscape, "arenaescape", "internal/arena")
}

// TestFileScoping proves an analyzer's Scope filters per file: a
// violation in an out-of-scope file is not reported.
func TestFileScoping(t *testing.T) {
	root := repoRoot(t)
	pkgDir := filepath.Join(root, "internal", "analysis", "testdata", "src", "floatexact")
	pkg, err := loadPackage(root, pkgDir, "internal/dbf")
	if err != nil {
		t.Fatal(err)
	}
	none := *FloatExact
	none.Scope = func(relDir, base string) bool { return false }
	diags := runPackage(pkg, &none)
	for _, d := range diags {
		if d.Analyzer == FloatExact.Name {
			t.Errorf("out-of-scope file reported: %s", d)
		}
	}
}

// TestLoadModuleRepo loads this repository end to end: the loader
// must resolve every package (including the main packages) without
// type errors.
func TestLoadModuleRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load in -short mode")
	}
	mod, err := LoadModule(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	byRel := map[string]*Package{}
	for _, pkg := range mod.Packages {
		byRel[pkg.RelDir] = pkg
	}
	for _, rel := range []string{"", "internal/dbf", "internal/exp", "cmd/rtlint"} {
		if byRel[rel] == nil {
			t.Errorf("module load missed package %q", rel)
		}
	}
}

// TestDiagnosticString pins the rendering the Makefile gate and CI
// logs rely on.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{Analyzer: "errsink", Message: "m"}
	d.Pos.Filename = "a/b.go"
	d.Pos.Line, d.Pos.Column = 3, 7
	if got, want := d.String(), "a/b.go:3:7: [errsink] m"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestSortDiagnostics pins the report order.
func TestSortDiagnostics(t *testing.T) {
	mk := func(file string, line int) Diagnostic {
		var d Diagnostic
		d.Pos.Filename, d.Pos.Line = file, line
		return d
	}
	diags := []Diagnostic{mk("b.go", 1), mk("a.go", 9), mk("a.go", 2)}
	SortDiagnostics(diags)
	got := fmt.Sprintf("%s:%d %s:%d %s:%d",
		diags[0].Pos.Filename, diags[0].Pos.Line,
		diags[1].Pos.Filename, diags[1].Pos.Line,
		diags[2].Pos.Filename, diags[2].Pos.Line)
	if want := "a.go:2 a.go:9 b.go:1"; got != want {
		t.Errorf("sorted order = %s, want %s", got, want)
	}
}

var _ = ast.Inspect // keep go/ast imported for doc references
