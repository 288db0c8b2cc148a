package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis. Test files (_test.go) are excluded: the gate guards the
// shipped analysis code, and test-only helpers may legitimately use
// wall clocks or floats.
type Package struct {
	RelDir     string // module-relative directory; "" for the root package
	ImportPath string
	Fset       *token.FileSet
	Files      []*ast.File
	FileBases  []string // base name of Files[i]'s source file
	Types      *types.Package
	Info       *types.Info
}

// Module is a fully loaded module: every package that contains
// non-test Go files, type-checked against the standard library.
type Module struct {
	Dir      string
	Path     string
	Fset     *token.FileSet
	Packages []*Package // sorted by RelDir
}

// loader type-checks module packages on demand, resolving in-module
// imports from source and the standard library from the compiler's
// export data, which go/importer reads from the build cache through
// `go list -export` instead of type-checking every imported package
// from source on each run. It is stdlib-only by design: rtlint must
// not add dependencies to the module it guards.
type loader struct {
	fset    *token.FileSet
	modDir  string
	modPath string
	std     types.ImporterFrom
	info    *types.Info
	pkgs    map[string]*Package // by RelDir
	loading map[string]bool     // import-cycle guard, by RelDir
}

func newLoader(modDir, modPath string) *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:    fset,
		modDir:  modDir,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "gc", nil).(types.ImporterFrom),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
			Implicits:  map[ast.Node]types.Object{},
		},
		pkgs:    map[string]*Package{},
		loading: map[string]bool{},
	}
}

// Import implements types.Importer for the checker: module-internal
// paths are loaded from source, "unsafe" is built in, and the rest is
// delegated to the export-data importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if rel, ok := l.moduleRel(path); ok {
		pkg, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.std.ImportFrom(path, "", 0)
}

// moduleRel maps an import path inside the module to its
// module-relative directory.
func (l *loader) moduleRel(path string) (string, bool) {
	if path == l.modPath {
		return "", true
	}
	if rest, ok := strings.CutPrefix(path, l.modPath+"/"); ok {
		return rest, true
	}
	return "", false
}

// load parses and type-checks the package in the module-relative
// directory rel, memoized.
func (l *loader) load(rel string) (*Package, error) {
	if pkg, ok := l.pkgs[rel]; ok {
		return pkg, nil
	}
	if l.loading[rel] {
		return nil, fmt.Errorf("import cycle through %q", rel)
	}
	l.loading[rel] = true
	defer func() { l.loading[rel] = false }()
	pkg, err := l.check(filepath.Join(l.modDir, filepath.FromSlash(rel)), rel)
	if err != nil {
		return nil, err
	}
	l.pkgs[rel] = pkg
	return pkg, nil
}

// check does the actual parse + type-check of one directory.
func (l *loader) check(dir, rel string) (*Package, error) {
	names, err := goSources(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no Go source files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	importPath := l.modPath
	if rel != "" {
		importPath = l.modPath + "/" + rel
	}
	var typeErrs []string
	conf := types.Config{
		Importer: l,
		Error: func(err error) {
			if len(typeErrs) < 10 {
				typeErrs = append(typeErrs, err.Error())
			}
		},
	}
	tpkg, err := conf.Check(importPath, l.fset, files, l.info)
	if len(typeErrs) > 0 {
		return nil, fmt.Errorf("type errors in %s:\n\t%s", importPath, strings.Join(typeErrs, "\n\t"))
	}
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", importPath, err)
	}
	return &Package{
		RelDir:     rel,
		ImportPath: importPath,
		Fset:       l.fset,
		Files:      files,
		FileBases:  names,
		Types:      tpkg,
		Info:       l.info,
	}, nil
}

// goSources lists the non-test Go files of dir, sorted.
func goSources(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	return names, nil
}

// LoadModule parses and type-checks every package of the module
// rooted at dir (skipping testdata, vendor, hidden and underscore
// directories, and all _test.go files).
func LoadModule(dir string) (*Module, error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(absDir)
	if err != nil {
		return nil, err
	}
	var rels []string
	err = filepath.WalkDir(absDir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != absDir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := goSources(path)
		if err != nil {
			return err
		}
		if len(names) == 0 {
			return nil
		}
		rel, err := filepath.Rel(absDir, path)
		if err != nil {
			return err
		}
		if rel == "." {
			rel = ""
		}
		rels = append(rels, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(rels)
	l := newLoader(absDir, modPath)
	mod := &Module{Dir: absDir, Path: modPath, Fset: l.fset}
	for _, rel := range rels {
		pkg, err := l.load(rel)
		if err != nil {
			return nil, err
		}
		mod.Packages = append(mod.Packages, pkg)
	}
	return mod, nil
}

// modulePath reads the module path from dir/go.mod.
func modulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("reading module root: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("no module line in %s/go.mod", dir)
}
