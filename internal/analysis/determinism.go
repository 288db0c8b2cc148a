package analysis

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the parallel experiment engine's promise:
// bit-identical output at any worker count, on any machine, on any Go
// release. Three things break that silently — wall-clock reads, the
// process-global math/rand source, and map iteration order reaching
// rendered output — so all three are banned from analysis and
// experiment code, everywhere in the module. The legitimate
// wall-clock timers in cmd/* carry explicit //rtlint:allow determinism
// directives.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "forbid wall-clock reads, the global math/rand source, and map-range iteration in output-producing packages",
	Run:  runDeterminism,
}

// clockFuncs are the package time functions that read the wall clock
// (directly or via the runtime timer); everything else in package time
// (Date, Unix, ParseDuration, …) is a pure function of its inputs.
var clockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"Tick":      true,
	"After":     true,
	"AfterFunc": true,
	"NewTimer":  true,
	"NewTicker": true,
}

// randConstructors are the package-level math/rand functions that
// build an explicitly seeded generator; they are the sanctioned way
// to hold randomness (the repo's own stats.RNG is preferred). Every
// other package-level function draws from the shared global source,
// whose stream depends on whatever else the process consumed.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true, // math/rand/v2
	"NewChaCha8": true, // math/rand/v2
}

// orderedOutputDirs are the packages whose results reach rendered
// tables, charts, and traces: any map-range order leak here shows up
// as a diff between two identical runs. Elsewhere map ranges are
// allowed (their results must not feed output).
var orderedOutputDirs = map[string]bool{
	"internal/exp":   true,
	"internal/stats": true,
	"internal/trace": true,
}

func runDeterminism(pass *Pass) {
	pass.Inspect(func(pkg *Package, n ast.Node) {
		switch n := n.(type) {
		case *ast.Ident:
			checkClockAndRand(pass, pkg, n)
		case *ast.RangeStmt:
			checkMapRange(pass, pkg, n)
		}
	})
}

func checkClockAndRand(pass *Pass, pkg *Package, id *ast.Ident) {
	fn, ok := pkg.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return // methods are fine; only package-level functions matter here
	}
	switch fn.Pkg().Path() {
	case "time":
		if clockFuncs[fn.Name()] {
			pass.Reportf(id.Pos(), "time.%s reads the wall clock and breaks run-to-run determinism; thread an explicit timestamp, or annotate with //rtlint:allow determinism -- <reason>", fn.Name())
		}
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			pass.Reportf(id.Pos(), "%s.%s draws from the process-global random source; use stats.RNG (or an explicitly seeded rand.New), or annotate with //rtlint:allow determinism -- <reason>", fn.Pkg().Path(), fn.Name())
		}
	}
}

func checkMapRange(pass *Pass, pkg *Package, rs *ast.RangeStmt) {
	if !orderedOutputDirs[pkg.RelDir] {
		return
	}
	t := pkg.Info.TypeOf(rs.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	pass.Reportf(rs.Pos(), "map iteration order is nondeterministic and this package feeds rendered output; collect keys and sort them first, or annotate with //rtlint:allow determinism -- <reason>")
}
