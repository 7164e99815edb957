package repro

import (
	"context"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/core"
)

// TestExperimentsDocFresh regenerates the EXPERIMENTS.md document and
// requires the committed file to match byte-for-byte. The document is a
// deterministic function of the experiment outcomes, so any drift means
// either the experiments changed without regenerating the doc, or the
// doc was edited by hand.
func TestExperimentsDocFresh(t *testing.T) {
	committed, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatalf("read committed doc: %v", err)
	}
	outs, err := core.RunAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := core.RenderMarkdown(outs)
	if string(committed) != want {
		t.Errorf("EXPERIMENTS.md is stale; regenerate it with:\n\t%s\n(or `make docs`)", core.DocsCommand)
	}
}

// lintedDocs are the documents that describe the tree as it is now:
// README.md, DESIGN.md, docs/ and the build-and-verify notes kept in a
// dot-directory beside the code (.*/skills/*/SKILL.md). CHANGES.md and
// ROADMAP.md are history and plans, so they may name surface that is
// gone or not yet built; benchmark/README.md belongs to the benchmark
// module, which lints it itself.
func lintedDocs(t *testing.T) []string {
	t.Helper()
	docs := []string{"README.md", "DESIGN.md"}
	for _, pattern := range []string{"docs/*.md", ".*/skills/*/SKILL.md"} {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, m...)
	}
	return docs
}

var (
	flagDeclRE = regexp.MustCompile(`flag\.\w+\((?:&[\w.]+,\s*)?"([\w-]+)"`)
	makeRuleRE = regexp.MustCompile(`(?m)^([A-Za-z][\w.-]*)\s*:(?:[^=]|$)`)
	// A make invocation: at the start of a code span, or at the start
	// of a line inside a fenced block.
	makeSpanRE  = regexp.MustCompile("`make\\s+([A-Za-z][\\w.-]*)")
	makeBlockRE = regexp.MustCompile(`^\s*make\s+([A-Za-z][\w.-]*)`)
)

// toolFlags returns the flags cmd/<tool> declares with the flag package.
func toolFlags(t *testing.T, tool string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("cmd", tool, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string]bool{}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range flagDeclRE.FindAllStringSubmatch(string(src), -1) {
			flags[m[1]] = true
		}
	}
	if len(flags) == 0 {
		t.Fatalf("found no flag declarations in cmd/%s", tool)
	}
	return flags
}

// flagUse is one flag a document passes to one of the CLI tools.
type flagUse struct{ tool, flag string }

// commandFlags scans one line for invocations of lfksim or lfksimd and
// returns every flag they are given.
func commandFlags(line string) []flagUse {
	var out []flagUse
	toks := strings.Fields(line)
	for i, tok := range toks {
		tool := strings.Trim(tok, "`(")
		tool = tool[strings.LastIndex(tool, "/")+1:]
		if tool != "lfksim" && tool != "lfksimd" || strings.HasSuffix(tok, "`") {
			continue
		}
		for _, f := range scanFlags(toks[i+1:]) {
			out = append(out, flagUse{tool, f})
		}
	}
	return out
}

// scanFlags reads the flags (and their values) that follow a tool
// name, up to a word that is neither, a shell operator, or the end of
// a code span or clause.
func scanFlags(toks []string) (flags []string) {
	wantValue := false
	for _, tok := range toks {
		bare := strings.TrimRight(tok, "`),;:")
		if bare == "" || strings.ContainsAny(bare, "`&|#>") {
			return flags
		}
		name := strings.TrimLeft(bare, "-")
		dashes := len(bare) - len(name)
		switch {
		case dashes >= 1 && dashes <= 2 && name != "" && unicode.IsLetter(rune(name[0])):
			name, _, hasValue := strings.Cut(name, "=")
			flags = append(flags, name)
			wantValue = !hasValue
		case wantValue: // a value, e.g. the 8 of -npe 8 or the -4 of -ps -4
			wantValue = false
		default:
			return flags
		}
		if bare != tok {
			return flags
		}
	}
	return flags
}

// goRefRE matches a code span that is exactly a qualified Go name:
// pkg.Name, pkg.Type.Member or Type.Member, optionally called, as in
// `Replayer.Cut(st, cfgs)`.
var goRefRE = regexp.MustCompile("`([A-Za-z_][A-Za-z0-9_]*(?:\\.[A-Za-z_][A-Za-z0-9_]*){1,2})(?:\\([^()`]*\\))?`")

// bareRefRE matches a code span that is exactly a bare Go name that
// starts upper-case, optionally called, as in `RunBatchN` or
// `Representative()`. checkBare leaves out the names with no
// lower-case letter (`LRU`, `NPE`), which are mostly not Go.
var bareRefRE = regexp.MustCompile("`([A-Z][A-Za-z0-9_]*)(?:\\([^()`]*\\))?`")

// goDecls indexes what the tree's Go files declare: each package
// name's top-level names, each type's fields, methods and embedded
// types (keyed "pkg.Type"), and every one of those names on its own.
type goDecls struct {
	pkgs    map[string]map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string
	types   map[string][]string // type name → packages declaring it
	names   map[string]bool
}

// loadGoDecls parses every Go file under the repository root, tests
// and the benchmark module included, skipping dot-directories and
// testdata.
func loadGoDecls(t *testing.T) *goDecls {
	t.Helper()
	d := &goDecls{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, types: map[string][]string{}, names: map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
		d.names[name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if d.pkgs[pkg] == nil {
			d.pkgs[pkg] = map[string]bool{}
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.pkgs[pkg][decl.Name.Name] = true
					d.names[decl.Name.Name] = true
				} else {
					member(pkg+"."+typeName(decl.Recv.List[0].Type), decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.pkgs[pkg][n.Name] = true
							d.names[n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						d.pkgs[pkg][typ] = true
						d.names[typ] = true
						d.types[typ] = append(d.types[typ], pkg)
						var fields []*ast.Field
						switch st := spec.Type.(type) {
						case *ast.StructType:
							fields = st.Fields.List
						case *ast.InterfaceType:
							fields = st.Methods.List
						}
						for _, fl := range fields {
							if len(fl.Names) == 0 { // embedded
								emb := typeName(fl.Type)
								member(pkg+"."+typ, emb)
								d.embeds[pkg+"."+typ] = append(d.embeds[pkg+"."+typ], emb)
							}
							for _, n := range fl.Names {
								member(pkg+"."+typ, n.Name)
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// typeName returns the name of a receiver or embedded type expression:
// T, *T, T[P] and pkg.T all name T.
func typeName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// hasMember reports whether pkg's type typ has a field or method name,
// directly or through a type it embeds from the same package.
func (d *goDecls) hasMember(pkg, typ, name string) bool {
	key := pkg + "." + typ
	if d.members[key][name] {
		return true
	}
	for _, emb := range d.embeds[key] {
		if emb != typ && d.hasMember(pkg, emb, name) {
			return true
		}
	}
	return false
}

// checkRef reports whether a dotted code span that names Go code names
// something the tree declares. A span whose first segment is a package
// of the tree is pkg.Name or pkg.Type.Member; Name must look like Go
// (it has an upper-case letter), which leaves out the dotted
// lower-case metric names (serve.cache_hits, refstream.batch.groups)
// that share the package prefixes. A span whose first segment is a
// type of the tree is Type.Member when Type is exported (engine.go is
// a file). Anything else (json.Marshal, README.md) is not this tree's
// name and passes.
func (d *goDecls) checkRef(ref string) bool {
	segs := strings.Split(ref, ".")
	if names, ok := d.pkgs[segs[0]]; ok && segs[0] != "main" {
		if !strings.ContainsFunc(segs[1], unicode.IsUpper) {
			return true
		}
		if !names[segs[1]] {
			return false
		}
		if len(segs) == 3 && slices.Contains(d.types[segs[1]], segs[0]) {
			return d.hasMember(segs[0], segs[1], segs[2])
		}
		return true
	}
	pkgs := d.types[segs[0]]
	if len(segs) != 2 || len(pkgs) == 0 || !unicode.IsUpper(rune(segs[0][0])) {
		return true
	}
	for _, pkg := range pkgs {
		if d.hasMember(pkg, segs[0], segs[1]) {
			return true
		}
	}
	return false
}

// checkBare reports whether a bare code span names something the tree
// declares at top level or as a field or method. A span with no
// lower-case letter is an acronym or a constant-style word, not
// checked.
func (d *goDecls) checkBare(name string) bool {
	return !strings.ContainsFunc(name, unicode.IsLower) || d.names[name]
}

// TestDocsNameLiveSurface fails when a current document names a CLI
// flag of lfksim or lfksimd, a make target, or (in a code span) a Go
// name, qualified or bare, that the tree no longer has: a deletion
// must take its documentation with it.
func TestDocsNameLiveSurface(t *testing.T) {
	decls := loadGoDecls(t)
	flags := map[string]map[string]bool{
		"lfksim":  toolFlags(t, "lfksim"),
		"lfksimd": toolFlags(t, "lfksimd"),
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makeRuleRE.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, doc := range lintedDocs(t) {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for n, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			for _, u := range commandFlags(line) {
				if !flags[u.tool][u.flag] {
					t.Errorf("%s:%d names `%s -%s`, which cmd/%s does not declare", doc, n+1, u.tool, u.flag, u.tool)
				}
			}
			makes := makeSpanRE.FindAllStringSubmatch(line, -1)
			if fenced {
				makes = append(makes, makeBlockRE.FindAllStringSubmatch(line, -1)...)
			}
			for _, m := range makes {
				if !targets[m[1]] {
					t.Errorf("%s:%d names `make %s`, which the Makefile does not define", doc, n+1, m[1])
				}
			}
			for _, m := range goRefRE.FindAllStringSubmatch(line, -1) {
				if !decls.checkRef(m[1]) {
					t.Errorf("%s:%d names `%s`, which no Go file in the tree declares", doc, n+1, m[1])
				}
			}
			for _, m := range bareRefRE.FindAllStringSubmatch(line, -1) {
				if !decls.checkBare(m[1]) {
					t.Errorf("%s:%d names `%s`, which no Go file in the tree declares", doc, n+1, m[1])
				}
			}
		}
	}
}

// TestGoRefs pins the Go-name half of the docs lint: it finds the
// names it must, accepts live ones and rejects gone ones.
func TestGoRefs(t *testing.T) {
	line := "see `refstream.Replayer.RunBatchN`, `sim.Config.Representative()`, " +
		"`serve.cache_hits`, `README.md` and `json.Marshal(v)`"
	var refs []string
	for _, m := range goRefRE.FindAllStringSubmatch(line, -1) {
		refs = append(refs, m[1])
	}
	want := []string{"refstream.Replayer.RunBatchN", "sim.Config.Representative", "serve.cache_hits", "README.md", "json.Marshal"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("spans = %v, want %v", refs, want)
	}
	d := loadGoDecls(t)
	for ref, want := range map[string]bool{
		"refstream.Replayer.RunBatchN": true,
		"refstream.Replayer.Run":       true,
		"refstream.twoLevel.build":     true, // promoted from the embedded peStrings
		"Replayer.Metrics":             true,
		"lru.Cache.Peek":               true,
		"sim.Config.Representative":    true,
		"serve.cache_hits":             true, // a metric name, not Go
		"README.md":                    true,
		"engine.go":                    true, // a file, though serve has a type engine
		"json.Marshal":                 true,
		"refstream.Replayer.RunBatch":  false,
		"Replayer.Workers":             false,
		"Engine.flights":               false,
		"serve.NoSuchName":             false,
	} {
		if got := d.checkRef(ref); got != want {
			t.Errorf("checkRef(%q) = %v, want %v", ref, got, want)
		}
	}
}

// TestBareGoRefs pins the bare-name half of the docs lint: it finds
// exactly the spans that are one upper-case name, called or not, and
// checks only those with a lower-case letter.
func TestBareGoRefs(t *testing.T) {
	line := "see `RunBatchN`, `Representative()`, `LRU`, `sim.Run`, `go test`, " +
		"`Replayer.Cut(st, cfgs)`, `README.md` and `Clone(r)`"
	var refs []string
	for _, m := range bareRefRE.FindAllStringSubmatch(line, -1) {
		refs = append(refs, m[1])
	}
	want := []string{"RunBatchN", "Representative", "LRU", "Clone"}
	if !reflect.DeepEqual(refs, want) {
		t.Fatalf("spans = %v, want %v", refs, want)
	}
	d := loadGoDecls(t)
	for name, want := range map[string]bool{
		"RunBatchN":               true, // a method
		"Representative":          true,
		"Replayer":                true, // a type
		"MetricBatchGroups":       true, // a constant
		"PerPE":                   true, // a field
		"FuzzReplayVsDirect":      true, // a test-file function
		"LRU":                     true, // no lower-case letter: not checked
		"Clone":                   false,
		"ReplayOff":               false,
		"FuzzReplayMatchesDirect": false,
		"Accept":                  false, // an HTTP header, not Go
	} {
		if got := d.checkBare(name); got != want {
			t.Errorf("checkBare(%q) = %v, want %v", name, got, want)
		}
	}
}

// TestCommandFlags pins the scanner the docs lint stands on, so the
// lint cannot pass by finding nothing.
func TestCommandFlags(t *testing.T) {
	cases := map[string][]flagUse{
		"/tmp/lfksim -kernel k1 -npe 8 -ps -4   # one-off run": {{"lfksim", "kernel"}, {"lfksim", "npe"}, {"lfksim", "ps"}},
		"run `lfksimd -router 3 -addr=:0` then -bench":         {{"lfksimd", "router"}, {"lfksimd", "addr"}},
		"go run ./cmd/lfksim -all -quiet && make docs":         {{"lfksim", "all"}, {"lfksim", "quiet"}},
		"lfksim -docs rewrites it, -exp runs one":              {{"lfksim", "docs"}},
		"go build -o /tmp/lfksimd ./cmd/lfksimd":               nil,
		"see `cmd/lfksim` and lfksim, -all":                    nil,
	}
	for line, want := range cases {
		if got := commandFlags(line); !reflect.DeepEqual(got, want) {
			t.Errorf("commandFlags(%q) = %v, want %v", line, got, want)
		}
	}
}

// optionStructs are the library's option structs, by package directory.
var optionStructs = []struct{ dir, pkg, typ string }{
	{"internal/serve", "serve", "Options"},
	{"internal/cluster", "cluster", "RouterOptions"},
	{"internal/cluster", "cluster", "SupervisorOptions"},
	{"internal/sweep", "sweep", "Options"},
	{"internal/kernelreg", "kernelreg", "Limits"},
}

// TestOptionsHaveCallers holds the option structs to fields somebody
// sets: each field must be named (`Field:` or `.Field =`) in a non-test
// Go file outside its own package that imports it — a command, the
// benchmark or another package. A field only tests set is a constant with a knob
// on it: it doubles the configurations tests and docs must cover and
// changes nothing a user can reach.
func TestOptionsHaveCallers(t *testing.T) {
	sources := map[string]string{} // non-test Go file → contents
	err := filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			sources[path] = string(b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, o := range optionStructs {
		found := false
		var fields []string
		for path, src := range sources {
			if filepath.Dir(path) != filepath.FromSlash(o.dir) {
				continue
			}
			f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if ts, ok := n.(*ast.TypeSpec); ok && ts.Name.Name == o.typ {
					found = true
					for _, fl := range ts.Type.(*ast.StructType).Fields.List {
						for _, name := range fl.Names {
							fields = append(fields, name.Name)
						}
					}
				}
				return true
			})
		}
		if !found {
			t.Fatalf("%s.%s: type not found in %s", o.pkg, o.typ, o.dir)
		}
		for _, field := range fields {
			id := o.pkg + "." + o.typ + "." + field
			set := regexp.MustCompile(`\b` + field + `:|\.` + field + `\s*=[^=]`)
			imports := `"repro/` + o.dir + `"`
			called := false
			for _, src := range sources {
				if strings.Contains(src, imports) && set.MatchString(src) {
					called = true
					break
				}
			}
			if !called {
				t.Errorf("%s is set by no non-test file outside %s: make it a constant", id, o.dir)
			}
		}
	}
}
