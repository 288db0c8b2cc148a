// Command rtlint runs the repository's domain-specific lint suite:
// four per-package analyzers (determinism, floatexact, overflowguard,
// errsink) plus three interprocedural ones riding a shared call graph
// (hotalloc, guardedby, arenaescape). See internal/analysis for the
// rules and CONTRIBUTING.md for the directive and annotation syntax.
//
// With -reach, rtlint instead runs the reachability gate: the
// arguments are the shipped executables, built with -gcflags=all=-l,
// and every function with a body in a non-main package of the module
// must be linked into one of them (see `make reach`).
//
// rtlint is stdlib-only (go/parser + go/types over the module's
// packages, debug/elf and debug/macho over the binaries) and
// exits 1 on any finding, 2 on load/type errors or bad usage. Package
// analysis fans out over internal/parallel.Map; output is path-ordered
// and bit-identical at any worker count.
//
// Usage:
//
//	rtlint [-dir module-root] [-workers n] [-list]
//	rtlint [-dir module-root] -reach binary...
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"rtoffload/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run keeps the driver testable: it returns the process exit code
// instead of calling os.Exit from the middle of the logic.
func run(args []string, stdout, stderr *os.File) int {
	fs := flag.NewFlagSet("rtlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dir := fs.String("dir", ".", "module root to analyze")
	workers := fs.Int("workers", 0, "package-analysis parallelism (0 = GOMAXPROCS)")
	list := fs.Bool("list", false, "list analyzers and exit")
	reach := fs.Bool("reach", false, "run only the reachability gate over the executables named as arguments")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reach != (fs.NArg() > 0) {
		fmt.Fprintln(stderr, "rtlint: -reach needs the binaries to judge as arguments, and only -reach takes arguments")
		return 2
	}

	if *list {
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		for _, a := range analysis.AllInterprocedural {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		fmt.Fprintf(stdout, "%-14s %s\n", analysis.Reach.Name, analysis.Reach.Doc)
		return 0
	}

	start := time.Now() //rtlint:allow determinism -- wall-clock timer reported to stderr
	mod, err := analysis.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "rtlint:", err)
		return 2
	}
	var diags []analysis.Diagnostic
	if *reach {
		linked, err := analysis.LinkedFuncs(mod.Path, fs.Args())
		if err != nil {
			fmt.Fprintln(stderr, "rtlint:", err)
			return 2
		}
		var st analysis.ReachStats
		diags, st = analysis.RunReach(mod, linked)
		fmt.Fprintf(stderr, "rtlint: reach: %d function(s) of %d line(s) linked into none of %d binaries\n", st.Unlinked, st.Lines, fs.NArg())
	} else if diags, err = analysis.RunModule(mod, analysis.ModuleOptions{Workers: *workers}); err != nil {
		fmt.Fprintln(stderr, "rtlint:", err)
		return 2
	}
	for _, d := range diags {
		// Report module-relative paths so output is stable across
		// checkouts.
		if rel, err := filepath.Rel(mod.Dir, d.Pos.Filename); err == nil {
			d.Pos.Filename = filepath.ToSlash(rel)
		}
		fmt.Fprintln(stdout, d)
	}
	//rtlint:allow determinism -- wall-clock timer reported to stderr
	elapsed := time.Since(start)
	fmt.Fprintf(stderr, "rtlint: %d finding(s) across %d package(s) in %v\n", len(diags), len(mod.Packages), elapsed.Round(time.Millisecond))
	if len(diags) > 0 {
		return 1
	}
	return 0
}
