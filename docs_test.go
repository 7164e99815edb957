package repro

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
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

// TestDocsNameLiveSurface fails when a current document names a CLI
// flag of lfksim or lfksimd, or a make target, that the tree no longer
// has: a deletion must take its documentation with it.
func TestDocsNameLiveSurface(t *testing.T) {
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
