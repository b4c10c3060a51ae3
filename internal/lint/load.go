package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved recursively from source; standard-library imports go
// through the stdlib source importer (binary Go distributions no longer
// ship export data, so "source" is the only compiler-independent mode).
// External imports are impossible by construction: the module has none.
//
// Packages are built one at a time, each exactly once, and a package's
// module imports are built before it is type-checked, so an import cycle
// is a load error naming the cycle. A Loader is not safe for concurrent use.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// ModulePath is the module path from go.mod (e.g. "repro").
	ModulePath string
	// RootDir is the directory containing go.mod.
	RootDir string

	std types.Importer
	// pkgs holds every package built so far by import path; a nil entry is
	// a package still being built, whose path is then on stack.
	pkgs  map[string]*Package
	stack []string
}

// Import implements types.Importer for the type checker: module-internal
// imports resolve through the loader, everything else through the stdlib
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if !l.inModule(path) {
		return l.std.Import(path)
	}
	p, err := l.Load(path)
	if err != nil {
		return nil, err
	}
	return p.Pkg, nil
}

// inModule reports whether path names a package of the loader's module.
func (l *Loader) inModule(path string) bool {
	return path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/")
}

// NewLoader locates go.mod at or above dir and prepares a loader.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("lint: no go.mod at or above %s", abs)
		}
		root = parent
	}
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	module := parseModFile(string(data))
	if module == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	// The stdlib source importer consults go/build.Default; cgo-variant
	// files would drag the cgo tool into type-checking, so disable them for
	// a hermetic, pure-Go view of std.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	return &Loader{
		Fset:       fset,
		ModulePath: module,
		RootDir:    root,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
	}, nil
}

// parseModFile extracts the module path from go.mod's module directive.
func parseModFile(src string) string {
	for _, line := range strings.Split(src, "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`)
		}
	}
	return ""
}

// Expand resolves package patterns to import paths. Supported forms:
// "./...", "dir/...", "./x/y", "x/y", and full import paths within the
// module. Directories named "testdata", hidden directories, and directories
// without non-test Go files are skipped.
func (l *Loader) Expand(patterns ...string) ([]string, error) {
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		pat = filepath.ToSlash(pat)
		if rest, ok := strings.CutPrefix(pat, l.ModulePath); ok && (rest == "" || rest[0] == '/') {
			pat = "." + rest
		}
		recursive := false
		if strings.HasSuffix(pat, "/...") || pat == "..." {
			recursive = true
			pat = strings.TrimSuffix(strings.TrimSuffix(pat, "..."), "/")
			if pat == "" {
				pat = "."
			}
		}
		dir := filepath.Join(l.RootDir, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
		if !recursive {
			if ip, ok := l.dirImportPath(dir); ok {
				add(ip)
				continue
			}
			return nil, fmt.Errorf("lint: no Go package in %s", dir)
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			if ip, ok := l.dirImportPath(path); ok {
				add(ip)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(out)
	return out, nil
}

// dirImportPath maps a directory inside the module to its import path,
// requiring at least one non-test Go file.
func (l *Loader) dirImportPath(dir string) (string, bool) {
	if len(l.goFiles(dir)) == 0 {
		return "", false
	}
	rel, err := filepath.Rel(l.RootDir, dir)
	if err != nil {
		return "", false
	}
	if rel == "." {
		return l.ModulePath, true
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel), true
}

// goFiles lists the non-test .go files of dir that build on this platform
// (//go:build lines and GOOS/GOARCH file suffixes, default tags), in
// lexical order: a package with one implementation per architecture is
// analysed as the one the host would compile.
func (l *Loader) goFiles(dir string) []string {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil
	}
	var files []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		if match, err := build.Default.MatchFile(dir, name); err == nil && !match {
			continue
		}
		files = append(files, filepath.Join(dir, name))
	}
	sort.Strings(files)
	return files
}

// Load parses and type-checks the package with the given module import
// path, reusing prior work.
func (l *Loader) Load(importPath string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return l.LoadDir(filepath.Join(l.RootDir, filepath.FromSlash(rel)), importPath)
}

// LoadAll loads every listed package. Results keep the input order.
func (l *Loader) LoadAll(paths []string) ([]*Package, error) {
	pkgs := make([]*Package, len(paths))
	for i, p := range paths {
		pkg, err := l.Load(p)
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", p, err)
		}
		pkgs[i] = pkg
	}
	return pkgs, nil
}

// LoadDir loads the package in dir under the given import path. It also
// serves testdata fixture packages, which Expand deliberately skips.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if pkg, ok := l.pkgs[importPath]; ok {
		if pkg == nil {
			cycle := l.stack[slices.Index(l.stack, importPath):]
			return nil, fmt.Errorf("lint: import cycle: %s -> %s", strings.Join(cycle, " -> "), importPath)
		}
		return pkg, nil
	}
	l.pkgs[importPath] = nil
	l.stack = append(l.stack, importPath)
	pkg, err := l.build(dir, importPath)
	l.stack = l.stack[:len(l.stack)-1]
	if err != nil {
		delete(l.pkgs, importPath)
		return nil, err
	}
	l.pkgs[importPath] = pkg
	return pkg, nil
}

// build parses one package, loads its module imports, and type-checks it.
func (l *Loader) build(dir, importPath string) (*Package, error) {
	files := l.goFiles(dir)
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	var asts []*ast.File
	for _, f := range files {
		a, err := parser.ParseFile(l.Fset, f, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		asts = append(asts, a)
		for _, spec := range a.Imports {
			if path, err := strconv.Unquote(spec.Path.Value); err == nil && l.inModule(path) {
				if _, err := l.Load(path); err != nil {
					return nil, err
				}
			}
		}
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg := &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       l.Fset,
		Files:      asts,
		Info:       info,
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.Fset, asts, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Pkg = tpkg
	return pkg, nil
}
