package lint

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// findingsSorted reports whether findings are ordered by file, line and
// column, the order Run promises.
func findingsSorted(findings []Finding) bool {
	return sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Col < b.Col
	})
}

// TestLoadAllDeterministic pins what bblint relies on from LoadAll: one
// Package per input path in input order, and findings over them that come
// back sorted by position and identical from one fresh loader to the next.
func TestLoadAllDeterministic(t *testing.T) {
	paths := []string{
		"repro/internal/core",
		"repro/internal/bbcrypto",
		"repro/internal/dpienc",
		"repro/internal/detect",
	}
	var base []Finding
	for round := 0; round < 2; round++ {
		loader, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.LoadAll(paths)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) != len(paths) {
			t.Fatalf("got %d packages, want %d", len(pkgs), len(paths))
		}
		for i, pkg := range pkgs {
			if pkg.ImportPath != paths[i] {
				t.Fatalf("package %d: got %s, want %s (input order must be kept)", i, pkg.ImportPath, paths[i])
			}
			if len(pkg.TypeErrors) > 0 {
				t.Fatalf("%s: type errors: %v", pkg.ImportPath, pkg.TypeErrors)
			}
		}
		findings := Run(pkgs, DefaultRules(loader.ModulePath))
		if !findingsSorted(findings) {
			t.Error("findings are not sorted by position")
		}
		if round == 0 {
			base = findings
			continue
		}
		if len(findings) != len(base) {
			t.Fatalf("round %d: %d findings, round 0 had %d", round, len(findings), len(base))
		}
		for i := range findings {
			if findings[i] != base[i] {
				t.Errorf("round %d finding %d differs: got %+v, want %+v", round, i, findings[i], base[i])
			}
		}
	}
}

// TestLoadAllSharedDependency: a dependency shared by several loaded
// packages is built once. dpienc and detect both import tokenize, and
// each must see the one package a later Load returns.
func TestLoadAllSharedDependency(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.LoadAll([]string{"repro/internal/dpienc", "repro/internal/detect"})
	if err != nil {
		t.Fatal(err)
	}
	tok, err := loader.Load("repro/internal/tokenize")
	if err != nil {
		t.Fatal(err)
	}
	again, err := loader.Load("repro/internal/tokenize")
	if err != nil {
		t.Fatal(err)
	}
	if again != tok {
		t.Fatal("a second Load of the same path built a distinct Package")
	}
	for _, pkg := range pkgs {
		seen := false
		for _, imp := range pkg.Pkg.Imports() {
			if imp.Path() != tok.ImportPath {
				continue
			}
			seen = true
			if imp != tok.Pkg {
				t.Errorf("%s imports a second build of %s", pkg.ImportPath, tok.ImportPath)
			}
		}
		if !seen {
			t.Errorf("%s does not import %s; the test no longer exercises a shared dependency", pkg.ImportPath, tok.ImportPath)
		}
	}
}

// TestLoadImportCycle: two packages that import each other are a load
// error naming the cycle, not unbounded recursion.
func TestLoadImportCycle(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module cyc\n\ngo 1.22\n",
		"a/a.go": "package a\n\nimport _ \"cyc/b\"\n",
		"b/b.go": "package b\n\nimport _ \"cyc/a\"\n",
	}
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.Load("cyc/a")
	if err == nil {
		t.Fatal("Load of an import cycle succeeded")
	}
	if want := "import cycle: cyc/a -> cyc/b -> cyc/a"; !strings.Contains(err.Error(), want) {
		t.Fatalf("error %q does not name the cycle %q", err, want)
	}
}
