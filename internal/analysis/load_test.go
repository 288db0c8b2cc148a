package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeTree(t *testing.T, files map[string]string) string {
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

// TestLoadModuleMissingGoMod asserts a tree without go.mod fails with
// the module-root error, not a panic or an empty module.
func TestLoadModuleMissingGoMod(t *testing.T) {
	dir := writeTree(t, map[string]string{"a/a.go": "package a\n"})
	if _, err := LoadModule(dir); err == nil || !strings.Contains(err.Error(), "reading module root") {
		t.Fatalf("err = %v, want module-root error", err)
	}
}

// TestLoadModuleNoModuleLine asserts a go.mod without a module
// directive is rejected.
func TestLoadModuleNoModuleLine(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":  "go 1.22\n",
		"a/a.go":  "package a\n",
		"b/b.go":  "package b\n",
		".hid/.x": "",
	})
	if _, err := LoadModule(dir); err == nil || !strings.Contains(err.Error(), "no module line") {
		t.Fatalf("err = %v, want no-module-line error", err)
	}
}

// TestLoadModuleSyntaxError asserts parse failures surface with the
// offending position.
func TestLoadModuleSyntaxError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc broken( {\n",
	})
	if _, err := LoadModule(dir); err == nil || !strings.Contains(err.Error(), "a.go") {
		t.Fatalf("err = %v, want parse error naming a.go", err)
	}
}

// TestLoadModuleTypeError asserts type-check failures are collected
// and reported per package.
func TestLoadModuleTypeError(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nfunc f() int { return undefinedName }\n",
	})
	if _, err := LoadModule(dir); err == nil || !strings.Contains(err.Error(), "type errors in tmpmod/a") {
		t.Fatalf("err = %v, want type errors in tmpmod/a", err)
	}
}

// TestLoadModuleImportCycle asserts mutually importing packages fail
// with the cycle guard instead of recursing forever.
func TestLoadModuleImportCycle(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod": "module tmpmod\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport \"tmpmod/b\"\n\nvar X = b.Y\n",
		"b/b.go": "package b\n\nimport \"tmpmod/a\"\n\nvar Y = a.X\n",
	})
	if _, err := LoadModule(dir); err == nil || !strings.Contains(err.Error(), "import cycle through") {
		t.Fatalf("err = %v, want import-cycle error", err)
	}
}

// TestLoadModuleSkipsNonCode asserts testdata, vendor, hidden and
// underscore directories, and _test.go files stay out of the load.
func TestLoadModuleSkipsNonCode(t *testing.T) {
	dir := writeTree(t, map[string]string{
		"go.mod":               "module tmpmod\n\ngo 1.22\n",
		"a/a.go":               "package a\n",
		"a/a_test.go":          "package a\n\nfunc helper() {}\n",
		"a/testdata/bad.go":    "this is not Go\n",
		"vendor/v/v.go":        "also not Go\n",
		".hidden/h.go":         "not Go either\n",
		"_skip/s.go":           "nor this\n",
		"a/_underscore.go":     "nor this\n",
		"a/.dotfile.go":        "nor this\n",
		"docs/readme.markdown": "prose\n",
	})
	mod, err := LoadModule(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(mod.Packages) != 1 || mod.Packages[0].RelDir != "a" {
		t.Fatalf("packages = %+v, want exactly [a]", mod.Packages)
	}
	if got := mod.Packages[0].FileBases; len(got) != 1 || got[0] != "a.go" {
		t.Fatalf("file bases = %v, want [a.go]", got)
	}
}

// TestLoadPackageEmptyDir asserts a directory without Go sources is an
// explicit error.
func TestLoadPackageEmptyDir(t *testing.T) {
	mod := writeTree(t, map[string]string{"go.mod": "module tmpmod\n\ngo 1.22\n"})
	empty := t.TempDir()
	if _, err := loadPackage(mod, empty, "x"); err == nil || !strings.Contains(err.Error(), "no Go source files") {
		t.Fatalf("err = %v, want no-sources error", err)
	}
}

// TestModulePathQuoted asserts quoted module lines parse.
func TestModulePathQuoted(t *testing.T) {
	dir := writeTree(t, map[string]string{"go.mod": "module \"tmpmod\"\n"})
	path, err := modulePath(dir)
	if err != nil || path != "tmpmod" {
		t.Fatalf("modulePath = %q, %v; want tmpmod", path, err)
	}
}
