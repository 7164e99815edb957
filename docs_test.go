package repro

import (
	"context"
	"go/types"
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

// goDecls indexes what the tree's type-checked packages declare, tests
// and the benchmark module included (repoSurface): the packages by
// name, the type names, and every top-level, field and method name.
type goDecls struct {
	pkgs  map[string][]*types.Package
	types map[string][]*types.TypeName
	names map[string]bool
}

func loadGoDecls(t *testing.T) *goDecls {
	t.Helper()
	s, err := repoSurface()
	if err != nil {
		t.Fatal(err)
	}
	d := &goDecls{pkgs: map[string][]*types.Package{}, types: map[string][]*types.TypeName{}, names: map[string]bool{}}
	for _, u := range s.units {
		d.pkgs[u.pkg.Name()] = append(d.pkgs[u.pkg.Name()], u.pkg)
		for _, name := range u.pkg.Scope().Names() {
			d.names[name] = true
			tn, ok := u.pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			d.types[name] = append(d.types[name], tn)
			if n, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < n.NumMethods(); i++ {
					d.names[n.Method(i).Name()] = true
				}
			}
			switch typ := tn.Type().Underlying().(type) {
			case *types.Struct:
				for i := 0; i < typ.NumFields(); i++ {
					d.names[typ.Field(i).Name()] = true
				}
			case *types.Interface:
				for i := 0; i < typ.NumMethods(); i++ {
					d.names[typ.Method(i).Name()] = true
				}
			}
		}
	}
	return d
}

// hasMember reports whether type tn has a field or method name,
// promoted ones included.
func hasMember(tn *types.TypeName, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(tn.Type(), true, tn.Pkg(), name)
	return obj != nil
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
	if pkgs, ok := d.pkgs[segs[0]]; ok && segs[0] != "main" {
		if !strings.ContainsFunc(segs[1], unicode.IsUpper) {
			return true
		}
		for _, pkg := range pkgs {
			obj := pkg.Scope().Lookup(segs[1])
			if obj == nil {
				continue
			}
			if tn, ok := obj.(*types.TypeName); !ok || len(segs) == 2 || hasMember(tn, segs[2]) {
				return true
			}
		}
		return false
	}
	tns := d.types[segs[0]]
	if len(segs) != 2 || len(tns) == 0 || !unicode.IsUpper(rune(segs[0][0])) {
		return true
	}
	return slices.ContainsFunc(tns, func(tn *types.TypeName) bool { return hasMember(tn, segs[1]) })
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
