package analysis

import (
	"debug/elf"
	"debug/macho"
	"errors"
	"fmt"
	"go/ast"
	"strings"
)

// Reach is the linker-based reachability gate: every function with a
// body in a non-main package of the module must be linked into at
// least one shipped binary. It does not ride the call graph, because
// class-hierarchy analysis keeps every in-module implementation of an
// interface alive, while the linker drops the methods of a type that
// nothing constructs. It runs only when rtlint is handed the binaries
// to judge (rtlint -reach), so only such a run judges a reach
// allow used or stale.
//
// The binaries must be built with -gcflags=all=-l: an inlined function
// leaves no symbol of its own. Reach has no Run: RunReach drives it.
var Reach = &ModuleAnalyzer{
	Name: "reach",
	Doc:  "every library function is linked into a shipped binary (needs -reach)",
}

// LinkedFuncs reads the text symbols of the given executables (ELF or
// Mach-O, the platforms `make reach` runs on) and returns the normalized names, as normalizeSymbol
// gives them, of those inside the module modPath.
func LinkedFuncs(modPath string, binaries []string) (map[string]bool, error) {
	linked := map[string]bool{}
	for _, bin := range binaries {
		syms, err := textSymbols(bin)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", bin, err)
		}
		if len(syms) == 0 {
			return nil, fmt.Errorf("%s: no symbol table (built with -ldflags=-s?)", bin)
		}
		for _, s := range syms {
			if s == modPath || strings.HasPrefix(s, modPath+".") || strings.HasPrefix(s, modPath+"/") {
				linked[normalizeSymbol(s)] = true
			}
		}
	}
	return linked, nil
}

// textSymbols lists the names of the function symbols of one
// executable.
func textSymbols(path string) ([]string, error) {
	if f, err := elf.Open(path); err == nil {
		defer f.Close()
		syms, err := f.Symbols()
		if errors.Is(err, elf.ErrNoSymbols) {
			return nil, nil
		}
		if err != nil {
			return nil, err
		}
		var out []string
		for _, s := range syms {
			if elf.ST_TYPE(s.Info) == elf.STT_FUNC {
				out = append(out, s.Name)
			}
		}
		return out, nil
	}
	f, err := macho.Open(path)
	if err != nil {
		return nil, fmt.Errorf("not an ELF or Mach-O executable")
	}
	defer f.Close()
	text := f.Section("__text")
	if f.Symtab == nil || text == nil {
		return nil, nil
	}
	var out []string
	for _, s := range f.Symtab.Syms {
		if s.Sect > 0 && int(s.Sect) <= len(f.Sections) && f.Sections[s.Sect-1] == text {
			out = append(out, strings.TrimPrefix(s.Name, "_"))
		}
	}
	return out, nil
}

// normalizeSymbol maps a linker symbol to the declaration it was
// compiled from, in the form reachKey gives: "pkg.Func" or
// "pkg.Recv.Method". It drops generic instantiation brackets (which
// nest and may quote struct tags), the receiver's pointer spelling,
// method-value and range-func suffixes (-fm, -rangeN), and trailing
// closure and wrapper components (.func1, .1, .deferwrap1, .gowrap1,
// and the .0 of a numbered init).
func normalizeSymbol(sym string) string {
	var b strings.Builder
	depth := 0
	for i := 0; i < len(sym); i++ {
		c := sym[i]
		switch {
		case depth > 0 && c == '"':
			for i++; i < len(sym) && sym[i] != '"'; i++ {
				if sym[i] == '\\' {
					i++
				}
			}
		case c == '[':
			depth++
		case c == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteByte(c)
		}
	}
	s := strings.NewReplacer("(*", "", ")", "").Replace(b.String())

	// The package path ends at the first dot after its last slash.
	slash := strings.LastIndexByte(s, '/')
	dot := strings.IndexByte(s[slash+1:], '.')
	if dot < 0 {
		return s
	}
	pkg, parts := s[:slash+1+dot], strings.Split(s[slash+2+dot:], ".")
	for i, p := range parts {
		if j := strings.IndexByte(p, '-'); j >= 0 {
			parts[i] = p[:j]
		}
	}
	for len(parts) > 1 && isClosureComponent(parts[len(parts)-1]) {
		parts = parts[:len(parts)-1]
	}
	return pkg + "." + strings.Join(parts, ".")
}

// isClosureComponent reports whether one dot-separated symbol
// component names a compiler-generated closure or wrapper.
func isClosureComponent(p string) bool {
	for _, prefix := range []string{"func", "deferwrap", "gowrap"} {
		if rest, ok := strings.CutPrefix(p, prefix); ok && rest != "" && isDigits(rest) {
			return true
		}
	}
	return isDigits(p)
}

func isDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return s != ""
}

// reachKey names a function declaration the way normalizeSymbol names
// its symbols.
func reachKey(importPath string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return importPath + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.ParenExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		}
		break
	}
	recv := "?"
	if id, ok := t.(*ast.Ident); ok {
		recv = id.Name
	}
	return importPath + "." + recv + "." + fd.Name.Name
}

// ReachStats counts one reach run's unlinked functions and their lines
// (signature through closing brace), whether an allow covers them or
// not.
type ReachStats struct {
	Unlinked int
	Lines    int
}

// RunReach reports, at its declaration, each function with a body in
// a non-main package of mod whose name is not in linked, unless a
// //rtlint:allow reach directive covers the declaration or its
// package clause (one allow on a harness package's clause covers the
// whole package). It then reports every reach allow that covered
// nothing. Other analyzers' directives are not judged.
func RunReach(mod *Module, linked map[string]bool) ([]Diagnostic, ReachStats) {
	var stats ReachStats
	var diags []Diagnostic
	for _, pkg := range mod.Packages {
		if pkg.Types.Name() == "main" {
			continue
		}
		ds := ParseDirectives(pkg.Fset, pkg.Files)
		var unlinked []*ast.FuncDecl
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if ok && fd.Body != nil && fd.Name.Name != "_" && !linked[reachKey(pkg.ImportPath, fd)] {
					unlinked = append(unlinked, fd)
				}
			}
		}
		// Consult every package-clause allow, so each is judged used
		// or stale on its own; none is used by a fully linked package.
		pkgAllowed := false
		for _, f := range pkg.Files {
			if len(unlinked) > 0 && ds.Allows(Reach.Name, pkg.Fset.Position(f.Package)) {
				pkgAllowed = true
			}
		}
		for _, fd := range unlinked {
			pos := pkg.Fset.Position(fd.Pos())
			stats.Unlinked++
			stats.Lines += pkg.Fset.Position(fd.Body.Rbrace).Line - pos.Line + 1
			if ds.Allows(Reach.Name, pos) || pkgAllowed {
				continue
			}
			diags = append(diags, Diagnostic{
				Pos:      pos,
				Analyzer: Reach.Name,
				Message: fmt.Sprintf("%s is linked into no shipped binary; delete it, move it into a _test.go file, or state its role with //rtlint:allow reach -- <role>",
					strings.TrimPrefix(reachKey(pkg.ImportPath, fd), pkg.ImportPath+".")),
			})
		}
		diags = append(diags, ds.staleAllows(Reach.Name)...)
	}
	SortDiagnostics(diags)
	return diags, stats
}
