package lint

import (
	"sort"
	"sync"
	"testing"
)

// TestLoadAllDeterministic pins the concurrency contract of the parallel
// loader: loading the same package set on many workers (run under -race in
// CI) yields one Package per input path in input order, and the diagnostics
// produced over them are identical — and sorted — no matter how the load
// was scheduled. The package set deliberately shares deep dependencies
// (core pulls bbcrypto, dpienc, tokenize...) so the singleflight paths get
// real contention.
func TestLoadAllDeterministic(t *testing.T) {
	paths := []string{
		"repro/internal/bbcrypto",
		"repro/internal/tokenize",
		"repro/internal/dpienc",
		"repro/internal/detect",
		"repro/internal/core",
		"repro/internal/rules",
	}
	var base []Finding
	for round := 0; round < 3; round++ {
		loader, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		pkgs, err := loader.LoadAll(paths, 8)
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
		if !sort.SliceIsSorted(findings, func(i, j int) bool {
			a, b := findings[i], findings[j]
			if a.File != b.File {
				return a.File < b.File
			}
			if a.Line != b.Line {
				return a.Line < b.Line
			}
			return a.Col < b.Col
		}) {
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

// TestLoadAllSharedDependency hammers one loader from many goroutines
// requesting overlapping packages; the singleflight layer must hand every
// caller the same *Package instance rather than rebuilding.
func TestLoadAllSharedDependency(t *testing.T) {
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	results := make([]*Package, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pkgs, err := loader.LoadAll([]string{"repro/internal/dpienc", "repro/internal/detect"}, 2)
			if err != nil {
				t.Error(err)
				return
			}
			results[g] = pkgs[0]
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] != results[0] {
			t.Fatalf("goroutine %d got a distinct Package instance for the same path", g)
		}
	}
}
