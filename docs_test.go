package sierra

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citingDocs are the documents that describe the code as it is now.
// CHANGES.md and ROADMAP.md are history and may name what is gone.
var citingDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestDocsCiteExistingNames fails when a citing document names a
// Test/Benchmark/Fuzz function no _test.go file defines, a flag that
// the cited command (sierra, sierra serve, evaluate, corpusgen) does not
// register, an exported name of an internal/ package that the
// package no longer declares, or, in a code span or code block, a file
// the tree lacks (a BENCH_*.json artifact or a path under scripts/,
// cmd/, internal/ or perfbench/).
func TestDocsCiteExistingNames(t *testing.T) {
	tests := definedTests(t)
	flags := registeredFlags(t)
	names := exportedNames(t)
	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range checkDoc(string(raw), tests, flags, names) {
			t.Errorf("%s: %s", doc, p)
		}
	}
}

var (
	testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
	citedTest  = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9]\w*`)
	// patternBefore marks a cited name used as a -run/-bench/-fuzz
	// pattern or one of its | alternatives, which only has to prefix a
	// defined name.
	patternBefore = regexp.MustCompile(`(?:-(?:run|bench|fuzz)[= ]['"]?\^?|\|)$`)
	flagDecl      = regexp.MustCompile(`\b(?:flag|fs)\.\w+\(\s*(?:&\w+,\s*)?"([a-z0-9-]+)"`)
	flagWord      = regexp.MustCompile(`^--?([a-z][a-z0-9-]*)(?:=.*)?$`)
	codeSpan      = regexp.MustCompile("`([^`\n]+)`")
	qualified     = regexp.MustCompile(`(?:^|[^.\w])([a-z][a-z0-9]*)\.([A-Z]\w*)`)
	shellSep      = regexp.MustCompile(`\|\||&&|[|;&()<>]`)
	// citedFile matches a BENCH_*.json artifact or a path under one of
	// the source trees, not as the tail of some other path.
	citedFile = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?(BENCH_\w+\.json|(?:scripts|cmd|internal|perfbench)(?:/[\w.*-]+)*)`)
	// pkgMember is the .Name tail of a package-qualified citation such
	// as internal/core.Analyze.
	pkgMember = regexp.MustCompile(`\.[A-Z]\w*$`)
)

// definedTests collects every Test/Benchmark/Fuzz/Example function name
// the module's _test.go files define.
func definedTests(t *testing.T) map[string]bool {
	out := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
			out[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// registeredFlags maps each command to the flags its source registers
// (plus the flag package's built-in -h and -help).
func registeredFlags(t *testing.T) map[string]map[string]bool {
	files := map[string][]string{
		"sierra":       {"cmd/sierra/main.go"},
		"sierra serve": {"cmd/sierra/serve.go"},
		"evaluate":     {"cmd/evaluate/main.go"},
		"corpusgen":    {"cmd/corpusgen/main.go"},
	}
	out := map[string]map[string]bool{}
	for cmd, paths := range files {
		out[cmd] = map[string]bool{"h": true, "help": true}
		for _, p := range paths {
			src, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDecl.FindAllStringSubmatch(string(src), -1) {
				out[cmd][m[1]] = true
			}
		}
	}
	return out
}

// exportedNames maps each internal/ package's name to the names its
// non-test files declare at top level, methods included (the documents
// cite a method as pkg.Method too).
func exportedNames(t *testing.T) map[string]map[string]bool {
	out := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		names := out[f.Name.Name]
		if names == nil {
			names = map[string]bool{}
			out[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							names[n.Name] = true
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
	return out
}

// checkDoc returns one problem line per stale citation in doc.
func checkDoc(doc string, tests map[string]bool, flags, names map[string]map[string]bool) []string {
	var probs []string
	for _, loc := range citedTest.FindAllStringIndex(doc, -1) {
		name := doc[loc[0]:loc[1]]
		if tests[name] {
			continue
		}
		pattern := patternBefore.MatchString(doc[max(0, loc[0]-8):loc[0]]) ||
			strings.HasPrefix(doc[loc[1]:], "*")
		if pattern && prefixesAny(name, tests) {
			continue
		}
		probs = append(probs, "no test function "+name)
	}
	for _, m := range qualified.FindAllStringSubmatch(doc, -1) {
		if decl, ok := names[m[1]]; ok && !decl[m[2]] && !citedTest.MatchString(m[2]) {
			probs = append(probs, "no exported name "+m[1]+"."+m[2])
		}
	}
	for _, para := range paragraphs(doc) {
		probs = append(probs, checkFlags(para, flags)...)
		probs = append(probs, checkFiles(para)...)
	}
	return probs
}

// checkFiles returns one problem per file or directory that the code
// of a paragraph cites and the tree lacks. A glob must match something.
func checkFiles(p paragraph) []string {
	var probs []string
	for _, line := range p.commands {
		for _, m := range citedFile.FindAllStringSubmatch(line, -1) {
			path := pkgMember.ReplaceAllString(strings.TrimRight(m[1], "./"), "")
			if strings.ContainsAny(path, "*?[") {
				if matches, _ := filepath.Glob(path); len(matches) > 0 {
					continue
				}
			} else if _, err := os.Stat(path); err == nil {
				continue
			}
			probs = append(probs, "no file "+path)
		}
	}
	return probs
}

func prefixesAny(prefix string, set map[string]bool) bool {
	for name := range set {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

// paragraph is one block of a document: a fenced code block, whose
// lines (continuations joined) are shell commands, or a run of prose
// lines, whose code spans are.
type paragraph struct {
	commands []string
	prose    bool
}

func paragraphs(doc string) []paragraph {
	var out []paragraph
	var cur paragraph
	// A code span may wrap across the lines of a prose paragraph, so
	// spans are found in the paragraph's lines joined.
	var prose []string
	flush := func() {
		for _, m := range codeSpan.FindAllStringSubmatch(strings.Join(prose, " "), -1) {
			cur.commands = append(cur.commands, m[1])
		}
		prose = nil
		if len(cur.commands) > 0 {
			out = append(out, cur)
		}
		cur = paragraph{}
	}
	inFence := false
	pending := ""
	for _, line := range strings.Split(doc, "\n") {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			flush()
			inFence = !inFence
			cur.prose = !inFence
		case inFence:
			if i := strings.Index(line, "#"); i >= 0 {
				line = line[:i]
			}
			if strings.HasSuffix(strings.TrimSpace(line), `\`) {
				pending += strings.TrimSuffix(strings.TrimSpace(line), `\`) + " "
				continue
			}
			cur.commands = append(cur.commands, pending+line)
			pending = ""
		case trimmed == "":
			flush()
			cur.prose = true
		default:
			cur.prose = true
			prose = append(prose, trimmed)
		}
	}
	flush()
	return out
}

// checkFlags checks the flags a paragraph cites: those after a command
// in the same command line must be registered by it, and in a
// paragraph that names one of the commands, a code span that is only
// flags (prose such as "`-refute-jobs` on `sierra`") must name a flag
// some command registers.
func checkFlags(p paragraph, flags map[string]map[string]bool) []string {
	var probs []string
	named := map[string]bool{}
	var bare []string
	for _, line := range p.commands {
		for _, simple := range shellSep.Split(line, -1) {
			words := strings.Fields(simple)
			cmd, args := commandOf(words)
			if cmd == "" {
				if p.prose && len(words) > 0 && flagWord.MatchString(words[0]) {
					bare = append(bare, flagWord.FindStringSubmatch(words[0])[1])
				}
				continue
			}
			named[cmd] = true
			for _, w := range args {
				if m := flagWord.FindStringSubmatch(w); m != nil && !flags[cmd][m[1]] {
					probs = append(probs, cmd+" registers no flag -"+m[1])
				}
			}
		}
	}
	if len(named) == 0 {
		return probs
	}
	for _, f := range bare {
		ok := false
		for _, registered := range flags {
			ok = ok || registered[f]
		}
		if !ok {
			probs = append(probs, "no command registers -"+f)
		}
	}
	return probs
}

// commandOf recognizes a sierra, sierra serve, evaluate or corpusgen
// invocation (by path, or through go run) and returns the command and
// its arguments.
func commandOf(words []string) (string, []string) {
	if len(words) >= 2 && words[0] == "go" && words[1] == "run" {
		words = words[2:]
	}
	if len(words) == 0 {
		return "", nil
	}
	switch filepath.Base(words[0]) {
	case "sierra":
		if len(words) > 1 && words[1] == "serve" {
			return "sierra serve", words[2:]
		}
		return "sierra", words[1:]
	case "evaluate", "corpusgen":
		return filepath.Base(words[0]), words[1:]
	}
	return "", nil
}
