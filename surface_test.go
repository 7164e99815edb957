package repro

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// moduleRoot is one module the surface census reads: its directory,
// its import path, and whether its own names are frozen (read as uses
// only, never held to the census).
type moduleRoot struct {
	dir, path string
	frozen    bool
}

// repoModules are the tree's two modules. The benchmark module is
// frozen: the names it calls count as used, and its own are not held
// to the census.
var repoModules = []moduleRoot{{".", "repro", false}, {"benchmark", "repro/benchmark", true}}

// optionStructs are the library's option structs ("import path.Type").
// Each field must be set by non-test code outside its package.
var optionStructs = []string{
	"repro/internal/serve.Options",
	"repro/internal/cluster.RouterOptions",
	"repro/internal/cluster.SupervisorOptions",
	"repro/internal/sweep.Options",
	"repro/internal/kernelreg.Limits",
}

// srcPkg is one directory's Go files as go/build lists them.
type srcPkg struct {
	path                           string
	frozen                         bool
	goFiles, testFiles, xtestFiles []*ast.File
	importPaths                    []string
}

// unit is one type-checked file set: a package's non-test files, the
// same package with its in-package test files, or its external test
// package.
type unit struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
	home  string // import path of the package the unit belongs to or tests
	test  bool   // a test variant; only its _test.go files are new
}

// surface is every package of a set of modules, type-checked once
// without tests and once with them.
type surface struct {
	fset  *token.FileSet
	src   map[string]*srcPkg
	paths []string                  // sorted import paths of src
	pkgs  map[string]*types.Package // non-test packages by import path
	units []*unit
	std   types.Importer
}

// loadSurface parses and type-checks every package under the roots,
// tests included: the module's own packages from source through a
// memoized importer, the standard library from gc export data (one
// `go list -export` call).
func loadSurface(roots []moduleRoot) (*surface, error) {
	s := &surface{fset: token.NewFileSet(), src: map[string]*srcPkg{}, pkgs: map[string]*types.Package{}}
	for _, r := range roots {
		if err := s.scan(r); err != nil {
			return nil, err
		}
	}
	for path := range s.src {
		s.paths = append(s.paths, path)
	}
	slices.Sort(s.paths)
	if err := s.stdImporter(); err != nil {
		return nil, err
	}
	for _, path := range s.paths {
		if len(s.src[path].goFiles) == 0 {
			continue
		}
		if _, err := s.Import(path); err != nil {
			return nil, err
		}
	}
	for _, path := range s.paths {
		p := s.src[path]
		under := s.pkgs[path]
		if len(p.testFiles) > 0 {
			u, err := s.check(path, append(slices.Clip(p.goFiles), p.testFiles...), s, path, true)
			if err != nil {
				return nil, err
			}
			under = u.pkg
		}
		if len(p.xtestFiles) > 0 {
			imp := importerFunc(func(ipath string) (*types.Package, error) {
				if ipath == path {
					return under, nil
				}
				return s.Import(ipath)
			})
			if _, err := s.check(path+"_test", p.xtestFiles, imp, path, true); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// scan lists and parses the packages of one module, skipping
// dot-directories, testdata and nested modules.
func (s *surface) scan(r moduleRoot) error {
	return filepath.WalkDir(r.dir, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != r.dir {
			if strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(r.dir, dir)
		if err != nil {
			return err
		}
		p := &srcPkg{path: r.path, frozen: r.frozen}
		if rel != "." {
			p.path += "/" + filepath.ToSlash(rel)
		}
		for _, set := range []struct {
			names []string
			dst   *[]*ast.File
		}{{bp.GoFiles, &p.goFiles}, {bp.TestGoFiles, &p.testFiles}, {bp.XTestGoFiles, &p.xtestFiles}} {
			for _, name := range set.names {
				f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return err
				}
				*set.dst = append(*set.dst, f)
			}
		}
		p.importPaths = slices.Concat(bp.Imports, bp.TestImports, bp.XTestImports)
		s.src[p.path] = p
		return nil
	})
}

// stdImporter reads every imported package outside the modules from gc
// export data, which one `go list -export` call locates (and builds if
// the build cache lacks it).
func (s *surface) stdImporter() error {
	var std []string
	for _, p := range s.src {
		for _, path := range p.importPaths {
			if _, ok := s.src[path]; !ok && path != "unsafe" && path != "C" && !slices.Contains(std, path) {
				std = append(std, path)
			}
		}
	}
	export := map[string]string{}
	if len(std) > 0 {
		goTool, err := exec.LookPath("go")
		if err != nil {
			goTool = filepath.Join(runtime.GOROOT(), "bin", "go")
		}
		cmd := exec.Command(goTool, append([]string{"list", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}, std...)...)
		cmd.Stderr = new(strings.Builder)
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("go list -export: %v\n%s", err, cmd.Stderr)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, "\t")
			export[path] = file
		}
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := export[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return nil
}

// Import returns a module package, type-checked once from its non-test
// files, or a standard-library package from export data.
func (s *surface) Import(path string) (*types.Package, error) {
	if pkg, ok := s.pkgs[path]; ok {
		return pkg, nil
	}
	p, ok := s.src[path]
	if !ok {
		return s.std.Import(path)
	}
	if len(p.goFiles) == 0 {
		return nil, fmt.Errorf("%s has no non-test Go files", path)
	}
	u, err := s.check(path, p.goFiles, s, path, false)
	if err != nil {
		return nil, err
	}
	s.pkgs[path] = u.pkg
	return u.pkg, nil
}

func (s *surface) check(path string, files []*ast.File, imp types.Importer, home string, test bool) (*unit, error) {
	u := &unit{files: files, home: home, test: test, info: &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	var err error
	u.pkg, err = (&types.Config{Importer: imp}).Check(path, s.fset, files, u.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %v", path, err)
	}
	s.units = append(s.units, u)
	return u, nil
}

// objKey names a package-level object or a method by import path,
// receiver type and name: "repro/internal/lru.Cache.Peek". It is the
// same for a package's object with and without its test files.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
			return ""
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// uses returns the keys of every object with a use that counts: any
// reference from non-test code, from an Example function, or from the
// tests of another package. A package's own tests do not count: a name
// only they reach belongs in its export_test.go. Nor does a reference
// inside the object's own declaration, such as a recursive call: it
// keeps nothing but the object itself alive.
func (s *surface) uses() map[string]bool {
	used := map[string]bool{}
	for _, u := range s.units {
		for _, f := range u.files {
			test := strings.HasSuffix(s.fset.File(f.Pos()).Name(), "_test.go")
			if u.test && !test {
				continue // counted by the non-test unit
			}
			var examples, decls []ast.Node
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && test && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
					examples = append(examples, fd)
				}
				if gd, ok := d.(*ast.GenDecl); ok {
					for _, spec := range gd.Specs {
						decls = append(decls, spec)
					}
				} else {
					decls = append(decls, d)
				}
			}
			within := func(n ast.Node, pos token.Pos) bool { return n.Pos() <= pos && pos < n.End() }
			ast.Inspect(f, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				obj := u.info.Uses[id]
				if obj == nil || obj.Pkg() == nil {
					return true
				}
				switch o := obj.(type) {
				case *types.Func:
					obj = o.Origin()
				case *types.Var:
					obj = o.Origin()
				}
				counts := !test || obj.Pkg().Path() != u.home || slices.ContainsFunc(examples, func(ex ast.Node) bool {
					return within(ex, id.Pos())
				})
				self := slices.ContainsFunc(decls, func(d ast.Node) bool {
					return within(d, id.Pos()) && within(d, obj.Pos())
				})
				if counts && !self {
					used[objKey(obj)] = true
				}
				return true
			})
		}
	}
	return used
}

// interfaces indexes, by method name, every named interface the
// packages declare or import (the universe's error included) plus the
// anonymous ones package errors asserts on.
func (s *surface) interfaces() map[string][]*types.Interface {
	byMethod := map[string][]*types.Interface{}
	add := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byMethod[name] = append(byMethod[name], it)
		}
	}
	errT := types.Universe.Lookup("error").Type()
	add(errT.Underlying().(*types.Interface))
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewVar(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	for _, m := range []struct {
		name           string
		params, result *types.Tuple
	}{
		{"Unwrap", tuple(), tuple(errT)},
		{"Unwrap", tuple(), tuple(types.NewSlice(errT))},
		{"Is", tuple(errT), tuple(types.Typ[types.Bool])},
		{"As", tuple(types.Universe.Lookup("any").Type()), tuple(types.Typ[types.Bool])},
	} {
		sig := types.NewSignatureType(nil, nil, nil, m.params, m.result, false)
		add(types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, m.name, sig)}, nil).Complete())
	}
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := n.Underlying().(*types.Interface); ok && it.IsMethodSet() {
				add(it)
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, path := range s.paths {
		if pkg := s.pkgs[path]; pkg != nil {
			walk(pkg)
		}
	}
	return byMethod
}

// implements reports whether T or *T implements an interface that
// declares method m.
func implements(named *types.Named, m *types.Func, byMethod map[string][]*types.Interface) bool {
	var t types.Type = named
	if tp := named.TypeParams(); tp.Len() > 0 {
		args := make([]types.Type, tp.Len())
		for i := range args {
			args[i] = tp.At(i)
		}
		inst, err := types.Instantiate(nil, named, args, false)
		if err != nil {
			return false
		}
		t = inst
	}
	for _, it := range byMethod[m.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// unsetOptionFields returns the fields of the option structs that no
// non-test code outside the struct's package sets, by a keyed or
// positional composite literal or by assignment.
func (s *surface) unsetOptionFields(options []string) ([]string, error) {
	fields := map[*types.Var]string{}
	for _, key := range options {
		i := strings.LastIndex(key, ".")
		pkg := s.pkgs[key[:i]]
		if pkg == nil {
			return nil, fmt.Errorf("option struct %s: no package %s", key, key[:i])
		}
		tn, _ := pkg.Scope().Lookup(key[i+1:]).(*types.TypeName)
		if tn == nil {
			return nil, fmt.Errorf("option struct %s: no such type", key)
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("option struct %s is not a struct", key)
		}
		for j := 0; j < st.NumFields(); j++ {
			fields[st.Field(j)] = key + "." + st.Field(j).Name()
		}
	}
	set := map[*types.Var]bool{}
	mark := func(u *unit, obj types.Object) {
		if v, ok := obj.(*types.Var); ok && v.IsField() && v.Pkg() != u.pkg {
			set[v.Origin()] = true
		}
	}
	for _, u := range s.units {
		if u.test {
			continue
		}
		for _, f := range u.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := u.info.Types[n].Type.Underlying().(*types.Struct)
					if !ok {
						return true
					}
					for j, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								mark(u, u.info.Uses[id])
							}
						} else if j < st.NumFields() {
							mark(u, st.Field(j))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && u.info.Selections[sel] != nil {
							mark(u, u.info.Selections[sel].Obj())
						}
					}
				}
				return true
			})
		}
	}
	var out []string
	for v, key := range fields {
		if !set[v] {
			out = append(out, key)
		}
	}
	slices.Sort(out)
	return out, nil
}

// unused returns every exported package-level name, and every exported
// method, of the non-frozen packages that has no use that counts and
// (for a method) implements no interface declaring it.
func (s *surface) unused() []string {
	used := s.uses()
	byMethod := s.interfaces()
	var out []string
	for _, path := range s.paths {
		pkg := s.pkgs[path]
		if pkg == nil || s.src[path].frozen {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			obj := pkg.Scope().Lookup(name)
			if obj.Exported() && !used[objKey(obj)] {
				out = append(out, objKey(obj))
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
				if m.Exported() && !used[objKey(m)] && !implements(named, m, byMethod) {
					out = append(out, objKey(m))
				}
			}
		}
	}
	return out
}

// repoSurface is the tree's surface, loaded once per test binary and
// shared by the census and the docs lints.
var repoSurface = sync.OnceValues(func() (*surface, error) { return loadSurface(repoModules) })

// TestSurfaceHasUses holds the library to a surface some program
// reaches. Every exported name and method of the repro module must
// have a use in non-test code of either module (the frozen benchmark
// included), in an Example, or in another package's tests, or (for a
// method) implement an interface that declares it; and every field of
// the option structs must be set by non-test code outside its package.
// A name only its own package's tests reach is a probe: it belongs in
// that package's export_test.go. There is no allowlist.
func TestSurfaceHasUses(t *testing.T) {
	s, err := repoSurface()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range s.unused() {
		t.Errorf("%s is exported but nothing uses it: delete it, or move it into export_test.go", name)
	}
	fields, err := s.unsetOptionFields(optionStructs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fields {
		t.Errorf("%s is set by no non-test code outside its package: make it a constant", f)
	}
}

// TestSurfaceCensusFixture runs the census over testdata/surface, a
// module of three packages with one case of each rule: it must flag
// the unused method, the function only its own body calls and the
// option field set only through another struct's same-named field, and
// nothing else.
func TestSurfaceCensusFixture(t *testing.T) {
	s, err := loadSurface([]moduleRoot{{filepath.Join("testdata", "surface"), "fixture", false}})
	if err != nil {
		t.Fatal(err)
	}
	fields, err := s.unsetOptionFields([]string{"fixture/a.Options"})
	if err != nil {
		t.Fatal(err)
	}
	got := append(s.unused(), fields...)
	want := []string{"fixture/a.Countdown", "fixture/a.T.Unused", "fixture/a.Options.Workers"}
	if !slices.Equal(got, want) {
		t.Errorf("census flags %q, want %q", got, want)
	}
}
