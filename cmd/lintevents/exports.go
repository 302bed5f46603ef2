package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The unused-export check: every exported identifier declared under
// internal/ must be referenced from somewhere other than its own
// declaration — a program file, a test, or a nested module such as
// perfbench. Exported methods that satisfy an interface (String,
// MarshalJSON, heap.Interface, transports) are reached through the
// interface and are exempt, as are embedded fields (reached by
// promotion) and tagged struct fields (reached by reflection).

// module is one Go module in the tree: the root or a nested one with
// its own go.mod.
type module struct {
	path, dir string
}

// exportLoader type-checks every package in the tree from source,
// delegating standard-library imports to the compiler's export data.
type exportLoader struct {
	fset   *token.FileSet
	mods   []module
	std    types.Importer
	files  map[string]*ast.File      // parsed once, so positions agree across checks
	pkgs   map[string]*types.Package // program files only, by import path
	used   map[token.Pos]bool        // declaration positions referenced anywhere
	ifaces map[*types.Interface]bool
}

// unusedExports reports every exported identifier under root/internal
// that nothing in the tree references, one "file:line:col: name" line
// each, sorted.
func unusedExports(root string) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &exportLoader{
		fset:  token.NewFileSet(),
		std:   importer.Default(),
		files: make(map[string]*ast.File),
		pkgs:  make(map[string]*types.Package),
		used:  make(map[token.Pos]bool),
		ifaces: map[*types.Interface]bool{
			types.Universe.Lookup("error").Type().Underlying().(*types.Interface): true,
		},
	}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if mp, ok := modulePath(filepath.Join(path, "go.mod")); ok {
			l.mods = append(l.mods, module{path: mp, dir: path})
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(l.mods) == 0 || l.mods[0].dir != root {
		return nil, fmt.Errorf("%s: no go.mod", root)
	}
	for _, dir := range dirs {
		if err := l.checkDir(dir); err != nil {
			return nil, err
		}
	}
	var out []string
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	for _, dir := range dirs {
		if !strings.HasPrefix(dir+string(filepath.Separator), internal) {
			continue
		}
		pkg := l.pkgs[l.importPath(dir)]
		if pkg == nil {
			continue
		}
		for _, d := range l.declared(pkg) {
			if !l.used[d.obj.Pos()] {
				pos := l.fset.Position(d.obj.Pos())
				pos.Filename, _ = filepath.Rel(root, pos.Filename)
				out = append(out, fmt.Sprintf("%s: exported %s is never referenced", pos, d.name))
			}
		}
	}
	sort.Strings(out)
	return out, nil
}

// modulePath reads the module line of a go.mod file.
func modulePath(gomod string) (string, bool) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", false
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// importPath maps a directory to its import path under the innermost
// module containing it.
func (l *exportLoader) importPath(dir string) string {
	best := module{}
	for _, m := range l.mods {
		if (dir == m.dir || strings.HasPrefix(dir, m.dir+string(filepath.Separator))) && len(m.dir) > len(best.dir) {
			best = m
		}
	}
	rel, _ := filepath.Rel(best.dir, dir)
	if rel == "." {
		return best.path
	}
	return best.path + "/" + filepath.ToSlash(rel)
}

// dirOf maps an import path back to a directory in the tree.
func (l *exportLoader) dirOf(path string) (string, bool) {
	best := module{}
	for _, m := range l.mods {
		if (path == m.path || strings.HasPrefix(path, m.path+"/")) && len(m.path) > len(best.path) {
			best = m
		}
	}
	if best.path == "" {
		return "", false
	}
	return filepath.Join(best.dir, filepath.FromSlash(strings.TrimPrefix(path[len(best.path):], "/"))), true
}

// parseDir returns dir's buildable files split into program files,
// in-package test files, and external (_test package) test files.
func (l *exportLoader) parseDir(dir string) (prog, inTest, extTest []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			continue
		}
		path := filepath.Join(dir, name)
		f, ok := l.files[path]
		if !ok {
			if f, err = parser.ParseFile(l.fset, path, nil, 0); err != nil {
				return nil, nil, nil, err
			}
			l.files[path] = f
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			prog = append(prog, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			extTest = append(extTest, f)
		default:
			inTest = append(inTest, f)
		}
	}
	return prog, inTest, extTest, nil
}

// Import implements types.Importer: tree packages are checked from
// source (program files only), everything else comes from export data.
func (l *exportLoader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	dir, ok := l.dirOf(path)
	if !ok {
		return l.std.Import(path)
	}
	prog, _, _, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	p, err := l.check(path, prog, l)
	if err != nil {
		return nil, err
	}
	l.pkgs[path] = p
	return p, nil
}

// testImporter resolves the package under test to its test-augmented
// build, as `go test` does for external test packages.
type testImporter struct {
	*exportLoader
	path string
	pkg  *types.Package
}

func (t testImporter) Import(path string) (*types.Package, error) {
	if path == t.path {
		return t.pkg, nil
	}
	return t.exportLoader.Import(path)
}

// check type-checks one set of files and records every reference they
// make and every interface they mention.
func (l *exportLoader) check(path string, files []*ast.File, imp types.Importer) (*types.Package, error) {
	info := &types.Info{
		Uses:  make(map[*ast.Ident]types.Object),
		Types: make(map[ast.Expr]types.TypeAndValue),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, err
	}
	for _, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		l.used[obj.Pos()] = true
	}
	for _, tv := range info.Types {
		if it, ok := tv.Type.Underlying().(*types.Interface); ok && tv.IsType() {
			l.ifaces[it] = true
		}
	}
	l.collectInterfaces(pkg, make(map[*types.Package]bool))
	return pkg, nil
}

// collectInterfaces records the named interfaces of pkg and everything
// it imports, standard library included.
func (l *exportLoader) collectInterfaces(pkg *types.Package, seen map[*types.Package]bool) {
	if seen[pkg] {
		return
	}
	seen[pkg] = true
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				l.ifaces[it] = true
			}
		}
	}
	for _, imp := range pkg.Imports() {
		l.collectInterfaces(imp, seen)
	}
}

// checkDir type-checks a directory's program files, its in-package
// tests and its external tests, recording their references.
func (l *exportLoader) checkDir(dir string) error {
	prog, inTest, extTest, err := l.parseDir(dir)
	if err != nil {
		return err
	}
	path := l.importPath(dir)
	if len(prog) > 0 {
		if _, err := l.Import(path); err != nil {
			return err
		}
	}
	under := l.pkgs[path]
	if len(inTest) > 0 {
		if under, err = l.check(path, append(append([]*ast.File(nil), prog...), inTest...), l); err != nil {
			return err
		}
	}
	if len(extTest) > 0 {
		if _, err := l.check(path+"_test", extTest, testImporter{l, path, under}); err != nil {
			return err
		}
	}
	return nil
}

// decl is one exported identifier a package declares.
type decl struct {
	obj  types.Object
	name string
}

// declared lists pkg's exported package-level identifiers, the exported
// methods of its named types that satisfy no known interface, and the
// exported, untagged, non-embedded fields of its structs.
func (l *exportLoader) declared(pkg *types.Package) []decl {
	var out []decl
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			out = append(out, decl{obj, pkg.Name() + "." + name})
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if m.Exported() && !l.satisfiesInterface(named, m.Name()) {
				out = append(out, decl{m, pkg.Name() + "." + name + "." + m.Name()})
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				if f.Exported() && !f.Embedded() && st.Tag(i) == "" {
					out = append(out, decl{f, pkg.Name() + "." + name + "." + f.Name()})
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether T or *T implements some known
// interface that has a method of the given name.
func (l *exportLoader) satisfiesInterface(t *types.Named, method string) bool {
	if t.TypeParams().Len() > 0 {
		return false
	}
	ptr := types.NewPointer(t)
	for it := range l.ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(t, it) || types.Implements(ptr, it)) {
			return true
		}
	}
	return false
}
