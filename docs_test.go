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
// package no longer declares, a member (method, struct field or
// interface method) that the cited type lacks — as the third segment of
// pkg.Type.Member, or in a code span as Type.Member for a type some
// internal/ package declares — or, in a code span or code block, a file
// the tree lacks (a BENCH_*.json artifact or a path under scripts/,
// cmd/, internal/ or perfbench/).
func TestDocsCiteExistingNames(t *testing.T) {
	tests := definedTests(t)
	flags := registeredFlags(t)
	decl := declaredNames(t)
	for _, doc := range citingDocs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range checkDoc(string(raw), tests, flags, decl) {
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
	qualified     = regexp.MustCompile(`(?:^|[^.\w])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.(\w+))?`)
	// typeMember is a Type.Member citation of an exported member, not
	// itself qualified by a package (that form is qualified's third
	// segment). A lower-case tail is prose notation, such as a
	// `Class.field` key.
	typeMember = regexp.MustCompile(`(?:^|[^.\w])([A-Z]\w*)\.([A-Z]\w*)`)
	shellSep   = regexp.MustCompile(`\|\||&&|[|;&()<>]`)
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

// declared is what the internal/ packages declare, keyed by package
// name.
type declared struct {
	// names holds each package's top-level names, methods included
	// (the documents cite a method as pkg.Method too).
	names map[string]map[string]bool
	// members holds each package's types, each with its methods,
	// struct fields and interface methods, embedded ones included.
	members map[string]map[string]map[string]bool
}

// declaredNames parses the non-test files of every internal/ package.
func declaredNames(t *testing.T) declared {
	d := declared{names: map[string]map[string]bool{}, members: map[string]map[string]map[string]bool{}}
	type typeRef struct{ pkg, name string }
	embeds := map[typeRef][]typeRef{}
	typeOf := func(pkg string, x ast.Expr) (typeRef, bool) {
		for {
			switch e := x.(type) {
			case *ast.StarExpr:
				x = e.X
			case *ast.IndexExpr:
				x = e.X
			case *ast.IndexListExpr:
				x = e.X
			case *ast.Ident:
				return typeRef{pkg, e.Name}, true
			case *ast.SelectorExpr:
				if id, ok := e.X.(*ast.Ident); ok {
					return typeRef{id.Name, e.Sel.Name}, true
				}
				return typeRef{}, false
			default:
				return typeRef{}, false
			}
		}
	}
	members := func(r typeRef) map[string]bool {
		types := d.members[r.pkg]
		if types == nil {
			types = map[string]map[string]bool{}
			d.members[r.pkg] = types
		}
		if types[r.name] == nil {
			types[r.name] = map[string]bool{}
		}
		return types[r.name]
	}
	// fieldsOf records a struct's fields or an interface's methods.
	fieldsOf := func(self typeRef, list *ast.FieldList) {
		into := members(self)
		for _, f := range list.List {
			for _, n := range f.Names {
				into[n.Name] = true
			}
			if len(f.Names) == 0 {
				if r, ok := typeOf(self.pkg, f.Type); ok {
					embeds[self] = append(embeds[self], r)
				}
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		names := d.names[pkg]
		if names == nil {
			names = map[string]bool{}
			d.names[pkg] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				names[decl.Name.Name] = true
				if decl.Recv != nil && len(decl.Recv.List) == 1 {
					if r, ok := typeOf(pkg, decl.Recv.List[0].Type); ok {
						members(r)[decl.Name.Name] = true
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						self := typeRef{pkg, spec.Name.Name}
						members(self)
						switch ty := spec.Type.(type) {
						case *ast.StructType:
							fieldsOf(self, ty.Fields)
						case *ast.InterfaceType:
							fieldsOf(self, ty.Methods)
						}
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
	// Promote embedded members until nothing changes (embedding is
	// acyclic, so this ends).
	for grew := true; grew; {
		grew = false
		for self, inner := range embeds {
			into := members(self)
			for _, r := range inner {
				for m := range d.members[r.pkg][r.name] {
					if !into[m] {
						into[m], grew = true, true
					}
				}
			}
		}
	}
	return d
}

// hasMember reports whether some internal/ package declares a type
// named typ, and whether one of those types has member.
func (d declared) hasMember(typ, member string) (declared, has bool) {
	for _, types := range d.members {
		if ms, ok := types[typ]; ok {
			declared = true
			has = has || ms[member]
		}
	}
	return declared, has
}

// checkDoc returns one problem line per stale citation in doc.
func checkDoc(doc string, tests map[string]bool, flags map[string]map[string]bool, decl declared) []string {
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
		names, ok := decl.names[m[1]]
		switch {
		case !ok || citedTest.MatchString(m[2]):
		case !names[m[2]]:
			probs = append(probs, "no exported name "+m[1]+"."+m[2])
		case m[3] != "":
			if ms, isType := decl.members[m[1]][m[2]]; isType && !ms[m[3]] {
				probs = append(probs, "no member "+m[1]+"."+m[2]+"."+m[3])
			}
		}
	}
	for _, para := range paragraphs(doc) {
		probs = append(probs, checkFlags(para, flags)...)
		probs = append(probs, checkFiles(para)...)
		if para.prose {
			probs = append(probs, checkMembers(para, decl)...)
		}
	}
	return probs
}

// checkMembers returns one problem per Type.Member that a prose
// paragraph's code spans cite where some internal/ package declares
// Type and none of its types so named has Member.
func checkMembers(p paragraph, decl declared) []string {
	var probs []string
	for _, span := range p.commands {
		for _, m := range typeMember.FindAllStringSubmatch(span, -1) {
			if isType, has := decl.hasMember(m[1], m[2]); isType && !has {
				probs = append(probs, "no member "+m[1]+"."+m[2])
			}
		}
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
