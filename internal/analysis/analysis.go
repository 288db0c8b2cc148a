// Package analysis hosts rtlint's domain-specific static analyzers.
//
// The repository makes correctness promises that go vet cannot check:
// bit-identical experiment output at any worker count, and exact,
// never-wrapping demand arithmetic (int64 dbf.Frac values and u128
// per-demand stats, summed by dbf.Sum and the Analyzer as numerators
// over one fixed common denominator). Each analyzer here turns one of
// those promises into a machine-checked gate rule:
//
//   - determinism:   no wall-clock reads, no global math/rand source,
//     no map-range iteration feeding ordered output.
//   - floatexact:    no float conversions or comparisons inside the
//     exact demand-analysis code.
//   - overflowguard: no raw *, <<, or derived + on Duration/int64
//     demand values outside the checked helpers in dbf/frac.go.
//   - errsink:       no silently discarded io.Writer / fmt.Fprintf
//     errors in library packages.
//   - hotalloc:      no allocation reachable from an //rtlint:hotpath
//     root through any call chain.
//   - guardedby:     fields marked //rtlint:guardedby <mutex> are only
//     accessed with the lock held; //rtlint:holds and
//     //rtlint:acquires extend the protocol across calls.
//   - arenaescape:   values aliasing an //rtlint:arena field never
//     escape their owner (exported returns, outside stores, channel
//     sends, closure captures).
//   - reach:         every library function is linked into one of the
//     shipped binaries, read from their symbol tables.
//
// All of them run on one framework: Run hands each analyzer the same
// loaded module, call graph (static calls resolved exactly, interface
// calls by class-hierarchy analysis), bound annotations and directive
// set, and every finding goes through Pass.Reportf.
//
// A finding can be exempted only by an explicit directive carrying a
// reason:
//
//	//rtlint:allow determinism -- wall-clock timer reported to stderr
//
// The directive covers its own source line and the line directly
// below it, and may name several analyzers separated by commas. A
// directive that is malformed, lacks a reason, names an unknown
// analyzer, or suppresses nothing is itself reported, so exemptions
// can never rot silently. An allow is judged stale only when every
// analyzer it names ran: reach runs only when given binaries, so a
// run without them leaves reach allows unjudged.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
)

// Diagnostic is one finding: a violated invariant at a position.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic as path:line:col: [analyzer] message.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one lint rule set.
type Analyzer struct {
	Name string
	Doc  string
	// Scope selects the files Pass.Inspect walks, by package directory
	// relative to the module root ("" for the root package) and file
	// base name; nil selects every file. Analyzers that follow the
	// call graph or the binaries see the whole module.
	Scope func(relDir, base string) bool
	Run   func(*Pass)
}

// All lists every analyzer, in run order.
var All = []*Analyzer{Determinism, FloatExact, OverflowGuard, ErrSink, HotAlloc, GuardedBy, ArenaEscape, Reach}

// Pass is one analyzer's view of the module.
type Pass struct {
	Analyzer *Analyzer
	Module   *Module
	Graph    *CallGraph
	Ann      *Annotations
	// Linked holds the functions the shipped binaries link, as
	// LinkedFuncs names them; reach reads it.
	Linked map[string]bool

	directives *DirectiveSet
	diags      *[]Diagnostic
	reach      *ReachStats
}

// Reportf records a finding at pos unless an rtlint:allow directive
// for this analyzer covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.Allowed(pos) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: p.Module.Fset.Position(pos), Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Allowed reports whether an allow directive for this analyzer covers
// pos, marking it used. Analyzers use it to prune traversal at
// justified call sites without emitting a finding.
func (p *Pass) Allowed(pos token.Pos) bool {
	return p.directives.Allows(p.Analyzer.Name, p.Module.Fset.Position(pos))
}

// Inspect walks every node of every file in the analyzer's scope, in
// package then file order, handing visit the owning package.
func (p *Pass) Inspect(visit func(*Package, ast.Node)) {
	for _, pkg := range p.Module.Packages {
		for i, f := range pkg.Files {
			if p.Analyzer.Scope == nil || p.Analyzer.Scope(pkg.RelDir, pkg.FileBases[i]) {
				ast.Inspect(f, func(n ast.Node) bool {
					visit(pkg, n)
					return true
				})
			}
		}
	}
}

// Run analyzes a loaded module with the given analyzers. linked is the
// set of functions the shipped binaries link (LinkedFuncs); reach runs
// only when it is non-nil. The directives are parsed once and the
// annotations bound once; then each analyzer runs, and finally every
// directive problem is reported: malformed directives, annotations
// bound to nothing, and allows whose named analyzers all ran and none
// used. It returns the findings, sorted, and reach's count of unlinked
// code (zero when reach did not run).
func Run(mod *Module, analyzers []*Analyzer, linked map[string]bool) ([]Diagnostic, ReachStats) {
	var files []*ast.File
	for _, pkg := range mod.Packages {
		files = append(files, pkg.Files...)
	}
	ds := ParseDirectives(mod.Fset, files)
	var diags []Diagnostic
	ann := newAnnotations()
	for _, pkg := range mod.Packages {
		ann.bindPackage(pkg, ds, func(d Diagnostic) { diags = append(diags, d) })
	}

	var stats ReachStats
	graph := BuildCallGraph(mod)
	ran := map[string]bool{}
	for _, az := range analyzers {
		if az.Name == Reach.Name && linked == nil {
			continue // reach judges binaries; without them it does not run
		}
		ran[az.Name] = true
		az.Run(&Pass{
			Analyzer:   az,
			Module:     mod,
			Graph:      graph,
			Ann:        ann,
			Linked:     linked,
			directives: ds,
			diags:      &diags,
			reach:      &stats,
		})
	}
	diags = append(diags, ds.Problems(ran)...)
	SortDiagnostics(diags)
	return diags, stats
}

// SortDiagnostics orders findings by file, line, column, analyzer.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}
