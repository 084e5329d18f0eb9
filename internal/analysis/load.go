// Package analysis implements graftlint, a repo-specific static-analysis
// suite for the concurrency invariants the matching kernels depend on that
// go vet and go test -race do not already cover: cache-line padding of
// per-worker state, context discipline of the resilient entry points,
// error/panic hygiene, goroutine/lock/WaitGroup flow rules, and lockset
// races on paths the race detector's tests never schedule. It is built
// entirely on the standard library (go/parser, go/ast, go/types, go/token,
// go/importer) so the lint wall needs nothing the toolchain does not
// already ship.
//
// The unit of analysis is a Program: every package of the module, parsed
// with comments and fully typechecked. Checks are whole-program — a field
// written under a lock in one package and without it in another is exactly
// the bug class a per-package pass cannot see.
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

// Package is one typechecked module package.
type Package struct {
	Path  string // import path (module path + "/" + relative dir)
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is the whole-module input to every check.
type Program struct {
	Fset    *token.FileSet
	ModPath string     // module path; packages under it are "internal APIs"
	Pkgs    []*Package // sorted by import path

	// Sizes64 models the primary 64-bit target (gc/amd64), the layout
	// falseshare reasons under.
	Sizes64 types.Sizes

	Config Config

	supp *suppressions
	fs   *flowState // lazily built flow substrate (flowInfo)
}

// Config scopes the package-sensitive rules.
type Config struct {
	// CtxPackages are import-path suffixes of the packages whose exported
	// Run* entry points must have a context-aware variant (ctx-discipline).
	CtxPackages []string
	// PanicPackages are import-path suffixes of the packages allowed to
	// panic: the containment layer that converts worker panics into errors.
	PanicPackages []string

	// HotPackages are import-path suffixes of the packages whose loop
	// bodies are allocation-sensitive (the BFS/superstep inner loops);
	// hotpath-alloc flags per-iteration allocations inside them, in
	// addition to the bodies of func literals handed to the internal/par
	// entry points anywhere in the module.
	HotPackages []string
}

// DefaultConfig returns the repo's production configuration.
func DefaultConfig() Config {
	return Config{
		CtxPackages: []string{
			"internal/par", "internal/core", "internal/pf",
			"internal/pushrelabel", "internal/dist", "internal/dist/net",
			"internal/supervise", "internal/obs", "internal/serve",
		},
		PanicPackages: []string{"internal/par"},
		HotPackages: []string{
			"internal/core", "internal/msbfs", "internal/queue",
			"internal/dist", "internal/dist/net", "internal/pf",
			"internal/pushrelabel", "internal/obs", "internal/serve",
		},
	}
}

// inSuffixList reports whether pkgPath equals or ends with "/"+one of the
// configured suffixes.
func inSuffixList(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// LoadModule loads the Go module rooted at dir (the directory containing
// go.mod) with the default configuration.
func LoadModule(dir string) (*Program, error) {
	modPath, err := modulePath(filepath.Join(dir, "go.mod"))
	if err != nil {
		return nil, err
	}
	return LoadTree(dir, modPath, DefaultConfig())
}

// LoadTree loads every package under root, assigning import path
// modPath+"/"+relative-dir (modPath for the root itself). Directories named
// "testdata", hidden directories, and _test.go files are skipped. Packages
// may import one another through modPath-prefixed paths; all other imports
// resolve from source via go/importer.
func LoadTree(root, modPath string, cfg Config) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		modPath: modPath,
		root:    root,
		std:     importer.ForCompiler(fset, "source", nil),
		parsed:  map[string]*parsedPkg{},
		checked: map[string]*Package{},
	}
	paths, err := ld.discover()
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:    fset,
		ModPath: modPath,
		Sizes64: types.SizesFor("gc", "amd64"),
		Config:  cfg,
	}
	for _, p := range paths {
		pkg, err := ld.check(p)
		if err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
	}
	sort.Slice(prog.Pkgs, func(i, j int) bool { return prog.Pkgs[i].Path < prog.Pkgs[j].Path })
	prog.supp = parseSuppressions(prog)
	return prog, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

type parsedPkg struct {
	path  string
	dir   string
	files []*ast.File
}

// loader typechecks module packages on demand, resolving module-internal
// imports from the parsed tree and everything else (the standard library)
// from source via go/importer.
type loader struct {
	fset    *token.FileSet
	modPath string
	root    string
	std     types.Importer
	parsed  map[string]*parsedPkg // import path -> parsed source
	checked map[string]*Package   // import path -> typechecked package
	stack   []string              // import cycle detection
}

// discover walks the tree, parses every candidate directory that contains
// non-test Go files, and returns the discovered import paths sorted.
func (ld *loader) discover() ([]string, error) {
	var paths []string
	err := filepath.WalkDir(ld.root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != ld.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		pp, err := ld.parseDir(path)
		if err != nil {
			return err
		}
		if pp != nil {
			ld.parsed[pp.path] = pp
			paths = append(paths, pp.path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	return paths, nil
}

// parseDir parses the non-test Go files of one directory, returning nil if
// the directory holds no Go package.
func (ld *loader) parseDir(dir string) (*parsedPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(ld.root, dir)
	if err != nil {
		return nil, err
	}
	path := ld.modPath
	if rel != "." {
		path = ld.modPath + "/" + filepath.ToSlash(rel)
	}
	return &parsedPkg{path: path, dir: dir, files: files}, nil
}

// check typechecks the module package with the given import path, resolving
// its module-internal imports recursively.
func (ld *loader) check(path string) (*Package, error) {
	if pkg, ok := ld.checked[path]; ok {
		return pkg, nil
	}
	for _, p := range ld.stack {
		if p == path {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
	}
	pp, ok := ld.parsed[path]
	if !ok {
		return nil, fmt.Errorf("analysis: unknown module package %q", path)
	}
	ld.stack = append(ld.stack, path)
	defer func() { ld.stack = ld.stack[:len(ld.stack)-1] }()

	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{
		Importer: importerFunc(func(ipath string) (*types.Package, error) {
			if ipath == "unsafe" {
				return types.Unsafe, nil
			}
			if ipath == ld.modPath || strings.HasPrefix(ipath, ld.modPath+"/") {
				sub, err := ld.check(ipath)
				if err != nil {
					return nil, err
				}
				return sub.Types, nil
			}
			return ld.std.Import(ipath)
		}),
		Sizes: types.SizesFor("gc", "amd64"),
	}
	tpkg, err := conf.Check(path, ld.fset, pp.files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", path, err)
	}
	pkg := &Package{Path: path, Dir: pp.dir, Files: pp.files, Types: tpkg, Info: info}
	ld.checked[path] = pkg
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
