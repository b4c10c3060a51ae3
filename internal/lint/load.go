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
	"runtime"
	"sort"
	"strings"
	"sync"
)

// Loader parses and type-checks packages of one module. Module-internal
// imports are resolved recursively from source; standard-library imports go
// through the stdlib source importer (binary Go distributions no longer
// ship export data, so "source" is the only compiler-independent mode).
// External imports are impossible by construction: the module has none.
//
// The loader is safe for concurrent use: LoadAll type-checks independent
// packages on parallel worker goroutines. Each package is built exactly
// once (singleflight entries under mu); the stdlib source importer is not
// concurrency-safe and is serialized behind stdMu. Workers that need a
// package another worker is building wait on its entry; a cross-worker
// wait cycle (only possible with a genuine import cycle) is detected by
// walking the waits map and reported as an error instead of deadlocking.
type Loader struct {
	// Fset is shared by every package the loader touches.
	Fset *token.FileSet
	// ModulePath is the module path from go.mod (e.g. "repro").
	ModulePath string
	// RootDir is the directory containing go.mod.
	RootDir string

	std   types.Importer
	stdMu sync.Mutex

	mu         sync.Mutex
	entries    map[string]*loadEntry
	waits      map[int]string // worker id -> import path it is blocked on
	nextWorker int
}

// loadEntry is the singleflight slot of one package build.
type loadEntry struct {
	done  chan struct{}
	pkg   *Package
	err   error
	owner int // worker id building the package
}

// loadCtx is the per-worker load context: a worker id for deadlock
// detection and the import stack for cycle diagnostics.
type loadCtx struct {
	l     *Loader
	id    int
	stack []string
}

// Import implements types.Importer for one worker: module-internal imports
// resolve through the loader (recursively, possibly waiting on another
// worker), everything else through the serialized stdlib source importer.
func (ctx *loadCtx) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	l := ctx.l
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.loadPath(ctx, path)
		if err != nil {
			return nil, err
		}
		return p.Pkg, nil
	}
	l.stdMu.Lock()
	defer l.stdMu.Unlock()
	return l.std.Import(path)
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
		entries:    make(map[string]*loadEntry),
		waits:      make(map[int]string),
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
	return l.loadPath(l.newCtx(), importPath)
}

// LoadAll loads every listed package, fanning independent packages out to
// up to `workers` goroutines (capped at the core count; <= 0 means the
// cap). Results keep the input order. Shared dependencies are built exactly
// once regardless of which worker gets there first.
func (l *Loader) LoadAll(paths []string, workers int) ([]*Package, error) {
	if max := runtime.NumCPU(); workers <= 0 || workers > max {
		workers = max
	}
	if workers > len(paths) {
		workers = len(paths)
	}
	pkgs := make([]*Package, len(paths))
	errs := make([]error, len(paths))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, p := range paths {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, p string) {
			defer func() { <-sem; wg.Done() }()
			pkgs[i], errs[i] = l.Load(p)
		}(i, p)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("loading %s: %w", paths[i], err)
		}
	}
	return pkgs, nil
}

// newCtx allocates a load context with a fresh worker id.
func (l *Loader) newCtx() *loadCtx {
	l.mu.Lock()
	l.nextWorker++
	id := l.nextWorker
	l.mu.Unlock()
	return &loadCtx{l: l, id: id}
}

// loadPath resolves an import path to its directory and builds it.
func (l *Loader) loadPath(ctx *loadCtx, importPath string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, l.ModulePath), "/")
	return l.loadDir(ctx, filepath.Join(l.RootDir, filepath.FromSlash(rel)), importPath)
}

// LoadDir loads the package in dir under the given import path. It also
// serves testdata fixture packages, which Expand deliberately skips.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	return l.loadDir(l.newCtx(), dir, importPath)
}

// loadDir is the singleflight core: the first worker to ask for a package
// builds it, everyone else waits on its entry. Before blocking, the waiter
// walks the owner chain through the waits map; finding itself there means
// a genuine import cycle spans workers, which is reported instead of
// deadlocking.
func (l *Loader) loadDir(ctx *loadCtx, dir, importPath string) (*Package, error) {
	l.mu.Lock()
	if e, ok := l.entries[importPath]; ok {
		select {
		case <-e.done: // already built
			l.mu.Unlock()
			return e.pkg, e.err
		default:
		}
		if e.owner == ctx.id {
			l.mu.Unlock()
			return nil, fmt.Errorf("lint: import cycle through %s (via %s)",
				importPath, strings.Join(ctx.stack, " -> "))
		}
		cur := e.owner
		for i := 0; i < len(l.entries)+1; i++ {
			next, waiting := l.waits[cur]
			if !waiting {
				break
			}
			ne, ok := l.entries[next]
			if !ok {
				break
			}
			if ne.owner == ctx.id {
				l.mu.Unlock()
				return nil, fmt.Errorf("lint: import cycle through %s (across concurrent loads)", importPath)
			}
			cur = ne.owner
		}
		l.waits[ctx.id] = importPath
		l.mu.Unlock()
		<-e.done
		l.mu.Lock()
		delete(l.waits, ctx.id)
		l.mu.Unlock()
		return e.pkg, e.err
	}
	e := &loadEntry{done: make(chan struct{}), owner: ctx.id}
	l.entries[importPath] = e
	l.mu.Unlock()

	ctx.stack = append(ctx.stack, importPath)
	e.pkg, e.err = l.build(ctx, dir, importPath)
	ctx.stack = ctx.stack[:len(ctx.stack)-1]
	close(e.done)
	return e.pkg, e.err
}

// build parses and type-checks one package (exactly once per import path).
func (l *Loader) build(ctx *loadCtx, dir, importPath string) (*Package, error) {
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
		Importer: ctx,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.Fset, asts, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Pkg = tpkg
	return pkg, nil
}
