// Package analysis hosts rtlint's domain-specific static analyzers.
//
// The repository makes correctness promises that go vet cannot check:
// bit-identical experiment output at any worker count, and exact,
// overflow-detected demand arithmetic on the int64 → big.Int → big.Rat
// tier ladder. Each analyzer here turns one of those promises into a
// machine-checked gate rule:
//
//   - determinism:   no wall-clock reads, no global math/rand source,
//     no map-range iteration feeding ordered output.
//   - floatexact:    no float conversions or comparisons inside the
//     exact demand-analysis code.
//   - overflowguard: no raw *, <<, or derived + on Duration/int64
//     demand values outside the checked helpers in dbf/frac.go.
//   - errsink:       no silently discarded io.Writer / fmt.Fprintf
//     errors in library packages.
//
// A second, module-wide layer (AllInterprocedural) shares one call
// graph — static calls resolved exactly, interface calls by
// class-hierarchy analysis — and checks annotation-declared
// invariants across function boundaries:
//
//   - hotalloc:    no allocation reachable from an //rtlint:hotpath
//     root through any call chain.
//   - guardedby:   fields marked //rtlint:guardedby <mutex> are only
//     accessed with the lock held; //rtlint:holds and
//     //rtlint:acquires extend the protocol across calls.
//   - arenaescape: values aliasing an //rtlint:arena field never
//     escape their owner (exported returns, outside stores, channel
//     sends, closure captures).
//
// The reach gate (reach.go) runs apart from both layers, over the
// symbol tables of the shipped binaries: every library function must
// be linked into one of them.
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
// can never rot silently.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
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
	Run  func(*Pass)
}

// All lists every analyzer, in report order.
var All = []*Analyzer{Determinism, FloatExact, OverflowGuard, ErrSink}

// Pass is the per-(analyzer, package) unit of work. Files holds only
// the files in the analyzer's scope; Info and Pkg cover the whole
// package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	// RelDir is the package directory relative to the module root
	// ("internal/dbf", "cmd/rtlint", "" for the root package).
	RelDir string

	directives *DirectiveSet
	sink       func(Diagnostic)
}

// Reportf records a finding at pos unless an rtlint:allow directive
// covers it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.directives.Allows(p.Analyzer.Name, position) {
		return
	}
	p.sink(Diagnostic{Pos: position, Analyzer: p.Analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// Target binds an analyzer to the files it inspects. Match receives
// the package directory relative to the module root and the file base
// name.
type Target struct {
	Analyzer *Analyzer
	Match    func(relDir, base string) bool
}

// DefaultTargets is the repository's gate configuration: which
// analyzer guards which layer.
func DefaultTargets() []Target {
	return []Target{
		// Determinism is a repo-wide promise: library packages feed the
		// deterministic experiment engine, and cmd wall-clock timers must
		// carry explicit directives.
		{Determinism, func(relDir, base string) bool { return true }},
		// Exact-analysis code: the dbf tier ladder and every core file
		// that carries exact rationals — the exact upgrade pass, the
		// budget estimator whose Ri values feed it, the incremental
		// admission path, and the decision types and their round-trip
		// serialization (Theorem3Total must survive I/O bit-exactly).
		{FloatExact, func(relDir, base string) bool {
			if relDir == "internal/dbf" {
				return true
			}
			if relDir != "internal/core" {
				return false
			}
			switch base {
			case "exact.go", "estimator.go", "admission.go", "core.go", "decisionio.go":
				return true
			}
			return false
		}},
		// Demand arithmetic; frac.go hosts the checked helpers and is the
		// one file allowed to do raw int64 work.
		{OverflowGuard, func(relDir, base string) bool {
			return (relDir == "internal/dbf" && base != "frac.go") || relDir == "internal/core"
		}},
		// Library packages must not swallow writer errors; main packages
		// own their best-effort console output.
		{ErrSink, func(relDir, base string) bool {
			return relDir == "" || strings.HasPrefix(relDir, "internal/")
		}},
	}
}

// runTargets runs the matching per-package analyzers against pkg,
// reporting through sink.
func runTargets(pkg *Package, targets []Target, ds *DirectiveSet, sink func(Diagnostic)) {
	for _, tgt := range targets {
		var files []*ast.File
		for i, f := range pkg.Files {
			if tgt.Match(pkg.RelDir, pkg.FileBases[i]) {
				files = append(files, f)
			}
		}
		if len(files) == 0 {
			continue
		}
		pass := &Pass{
			Analyzer:   tgt.Analyzer,
			Fset:       pkg.Fset,
			Files:      files,
			Pkg:        pkg.Types,
			Info:       pkg.Info,
			RelDir:     pkg.RelDir,
			directives: ds,
			sink:       sink,
		}
		tgt.Analyzer.Run(pass)
	}
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
