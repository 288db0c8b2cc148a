// Command rtlint runs the repository's domain-specific lint suite in
// one pass over one module load: determinism, floatexact,
// overflowguard and errsink over the files in their scope; hotalloc,
// guardedby and arenaescape over a shared call graph; and, when the
// shipped executables are given as arguments, the reach gate, which
// fails on any function with a body in a non-main package that none
// of them links (build them with -gcflags=all=-l; see `make lint`).
// Without binaries reach does not run, and its allows stay unjudged.
// See internal/analysis for the rules and CONTRIBUTING.md for the
// directive and annotation syntax.
//
// rtlint is stdlib-only (go/parser + go/types over the module's
// packages, debug/elf and debug/macho over the binaries) and
// exits 1 on any finding, 2 on load/type errors or bad usage. Output
// is path-ordered and deterministic.
//
// Usage:
//
//	rtlint [-dir module-root] [-list] [binary...]
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
	list := fs.Bool("list", false, "list analyzers and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	start := time.Now() //rtlint:allow determinism -- wall-clock timer reported to stderr
	mod, err := analysis.LoadModule(*dir)
	if err != nil {
		fmt.Fprintln(stderr, "rtlint:", err)
		return 2
	}
	var linked map[string]bool
	if fs.NArg() > 0 {
		if linked, err = analysis.LinkedFuncs(mod.Path, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "rtlint:", err)
			return 2
		}
	}
	diags, st := analysis.Run(mod, analysis.All, linked)
	if linked != nil {
		fmt.Fprintf(stderr, "rtlint: reach: %d function(s) of %d line(s) linked into none of %d binaries\n", st.Unlinked, st.Lines, fs.NArg())
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
