package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestParseDirectiveForms covers the parser's accept/reject matrix:
// every verb's arity, the mandatory allow reason, unknown names, and
// verbs that must be whole words.
func TestParseDirectiveForms(t *testing.T) {
	cases := []struct {
		text    string
		verb    string
		problem string // substring; "" = well-formed
	}{
		{"allow determinism -- timer", "allow", ""},
		{"allow determinism,floatexact -- shared reason", "allow", ""},
		{"allow determinism", "allow", "needs a reason"},
		{"allow determinism --", "allow", "needs a reason"},
		{"allow -- reason only", "allow", "names no analyzer"},
		{"allow nosuch -- reason", "allow", "unknown analyzer nosuch"},
		{"allow hotalloc -- interprocedural analyzers are allowable too", "allow", ""},
		{"allow reach,determinism -- one allow may name reach beside others", "allow", ""},
		{"allowdeterminism -- verb glued to its analyzer", "", "unknown rtlint directive verb"},
		{"hotpath -- dispatch loop", "hotpath", ""},
		{"hotpath extra -- reason", "hotpath", "takes no arguments"},
		{"arena", "arena", ""},
		{"arena buf", "arena", "takes no arguments"},
		{"guardedby mu", "guardedby", ""},
		{"guardedby", "guardedby", "exactly one argument"},
		{"guardedby mu extra", "guardedby", "exactly one argument"},
		{"holds tn.mu", "holds", ""},
		{"acquires mu -- returns locked", "acquires", ""},
		{"frobnicate", "", "unknown rtlint directive verb"},
	}
	for _, tc := range cases {
		d := parseDirective(tc.text)
		if tc.problem == "" {
			if d.problem != "" {
				t.Errorf("parseDirective(%q): unexpected problem %q", tc.text, d.problem)
			}
			if d.verb != tc.verb {
				t.Errorf("parseDirective(%q): verb = %q, want %q", tc.text, d.verb, tc.verb)
			}
			continue
		}
		if !strings.Contains(d.problem, tc.problem) {
			t.Errorf("parseDirective(%q): problem = %q, want substring %q", tc.text, d.problem, tc.problem)
		}
	}
}

// TestParseDirectiveStripsWant asserts golden-test `// want`
// expectations never leak into payloads or satisfy the reason rule.
func TestParseDirectiveStripsWant(t *testing.T) {
	d := parseDirective(`allow determinism -- timer // want "ignored"`)
	if d.problem != "" || d.reason != "timer" {
		t.Errorf("trailing want not stripped: problem=%q reason=%q", d.problem, d.reason)
	}
	d = parseDirective(`allow determinism -- // want "ignored"`)
	if !strings.Contains(d.problem, "needs a reason") {
		t.Errorf("want-only reason accepted: problem=%q", d.problem)
	}
}

// TestDirectiveText covers the comment-marker stripping and the
// non-directive rejections.
func TestDirectiveText(t *testing.T) {
	if text, ok := directiveText("//rtlint:allow x -- y"); !ok || text != "allow x -- y" {
		t.Errorf("line comment: got %q, %v", text, ok)
	}
	if text, ok := directiveText("/*rtlint:arena*/"); !ok || text != "arena" {
		t.Errorf("block comment: got %q, %v", text, ok)
	}
	for _, c := range []string{"// rtlint:allow x -- y", "//lint:allow", "plain text"} {
		if _, ok := directiveText(c); ok {
			t.Errorf("directiveText(%q) accepted a non-directive", c)
		}
	}
}

// TestProblemsReportsRot parses a file holding one directive of each
// failure class — malformed, stale allow, unbound annotation — and
// asserts each is reported.
func TestProblemsReportsRot(t *testing.T) {
	const src = `package p

//rtlint:allow determinism
func a() {}

//rtlint:allow determinism -- suppresses nothing here
func b() {}

//rtlint:hotpath -- bound to nothing because nothing consumed it
var x int
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := ParseDirectives(fset, []*ast.File{f})
	probs := ds.Problems(map[string]bool{"determinism": true})
	wants := []string{
		"needs a reason",
		"suppresses nothing",
		"annotates nothing",
	}
	if len(probs) != len(wants) {
		t.Fatalf("got %d problems, want %d: %v", len(probs), len(wants), probs)
	}
	for i, want := range wants {
		if !strings.Contains(probs[i].Message, want) {
			t.Errorf("problem %d = %q, want substring %q", i, probs[i].Message, want)
		}
		if probs[i].Analyzer != directiveAnalyzer {
			t.Errorf("problem %d attributed to %q, want %q", i, probs[i].Analyzer, directiveAnalyzer)
		}
	}
}

// TestAllowsMarksUsed asserts coverage spans the directive's line and
// the line below, and that a suppression retires the stale report.
func TestAllowsMarksUsed(t *testing.T) {
	const src = `package p

//rtlint:allow determinism -- line below
func a() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := ParseDirectives(fset, []*ast.File{f})
	if ds.Allows("floatexact", token.Position{Filename: "p.go", Line: 4}) {
		t.Error("allow covered an analyzer it does not name")
	}
	if ds.Allows("determinism", token.Position{Filename: "p.go", Line: 5}) {
		t.Error("allow covered a line outside its two-line span")
	}
	if !ds.Allows("determinism", token.Position{Filename: "p.go", Line: 4}) {
		t.Error("allow did not cover the line below it")
	}
	if probs := ds.Problems(map[string]bool{"determinism": true}); len(probs) != 0 {
		t.Errorf("used allow still reported: %v", probs)
	}
}

// TestStaleAllowNeedsEveryAnalyzerRun pins the one staleness rule: an
// unused allow is stale only when every analyzer it names ran, so a
// run without binaries, where reach does not run, leaves reach allows
// unjudged.
func TestStaleAllowNeedsEveryAnalyzerRun(t *testing.T) {
	const src = `package p

//rtlint:allow reach -- reference: test oracle
func F() {}

//rtlint:allow reach,determinism -- reference: test oracle
func G() {}
`
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds := ParseDirectives(fset, []*ast.File{f})
	for _, tc := range []struct {
		ran   map[string]bool
		lines []int
	}{
		{map[string]bool{"determinism": true}, nil},
		{map[string]bool{"reach": true}, []int{3}},
		{map[string]bool{"determinism": true, "reach": true}, []int{3, 6}},
	} {
		var lines []int
		for _, d := range ds.Problems(tc.ran) {
			if !strings.Contains(d.Message, "suppresses nothing") {
				t.Errorf("ran %v: unexpected problem %v", tc.ran, d)
			}
			lines = append(lines, d.Pos.Line)
		}
		if fmt.Sprint(lines) != fmt.Sprint(tc.lines) {
			t.Errorf("ran %v: stale allows on lines %v, want %v", tc.ran, lines, tc.lines)
		}
	}
}
