package appfile

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"sierra/internal/apk"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// maxLine is the longest line Read accepts, in bytes before its
// newline; a longer one fails the read with bufio.ErrTooLong — the
// bound, and the error, of a bufio.Scanner with a 1 MiB buffer.
const maxLine = 1<<20 - 1

// Read parses an app file, installs the framework, finalizes the
// program, and validates the result.
//
// The input is read once into one string, cut into lines with
// IndexByte, and split into fields on exactly the separators
// strings.Fields uses, with no per-line allocation. Every identifier
// the app keeps is interned in a per-app table, so the parsed app
// shares no memory with the input: an app that outlives its parse (a
// serve job's name, an incremental baseline) never pins the document
// it came from. Validation is eager — a malformed line fails the read
// wherever it is, reachable from an entry point or not.
func Read(r io.Reader) (*apk.App, error) {
	var text strings.Builder
	if _, err := io.Copy(&text, r); err != nil {
		return nil, err
	}
	rd := newReader()
	if err := rd.parse(text.String()); err != nil {
		return nil, err
	}
	rd.prog.Finalize()
	if err := rd.app.Validate(); err != nil {
		return nil, err
	}
	return rd.app, nil
}

// reader is one parse's state.
type reader struct {
	prog    *ir.Program
	app     *apk.App
	ids     map[string]string // the per-app identifier table (see intern)
	classes map[string]*ir.Class
	views   map[string]map[int]*apk.View // layout -> view id -> view
	method  *ir.Method                   // the method blocks attach to
	block   *ir.Block                    // the block statements attach to
	stmts   []ir.Stmt                    // block's statements so far (see setBlock)

	lineNo int
	line   string   // the current line, trimmed (quoted in errors)
	f      []string // its fields: substrings of the input, reused per line
}

func newReader() *reader {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	return &reader{
		prog:    p,
		app:     &apk.App{Program: p, Layouts: map[string]*apk.Layout{}},
		ids:     map[string]string{},
		classes: map[string]*ir.Class{},
		views:   map[string]map[int]*apk.View{},
	}
}

// intern returns the table's copy of s, adding a copy on first sight.
// Fields are substrings of the whole input, so anything stored must go
// through here.
func (rd *reader) intern(s string) string {
	if v, ok := rd.ids[s]; ok {
		return v
	}
	v := strings.Clone(s)
	rd.ids[v] = v
	return v
}

// internList interns each element of a comma-separated list, split as
// strings.Split(s, ",") splits it.
func (rd *reader) internList(s string) []string {
	out := make([]string, 0, strings.Count(s, ",")+1)
	for {
		i := strings.IndexByte(s, ',')
		if i < 0 {
			return append(out, rd.intern(s))
		}
		out = append(out, rd.intern(s[:i]))
		s = s[i+1:]
	}
}

func (rd *reader) fail(msg string) error {
	return fmt.Errorf("appfile: line %d: %s: %q", rd.lineNo, msg, rd.line)
}

func (rd *reader) parse(text string) error {
	for len(text) > 0 {
		rd.lineNo++
		raw := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			raw, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if len(raw) > maxLine {
			return bufio.ErrTooLong
		}
		rd.line = strings.TrimSpace(raw)
		if rd.line == "" || rd.line[0] == '#' {
			continue
		}
		rd.f = splitFields(rd.f[:0], rd.line)
		if err := rd.directive(rd.f); err != nil {
			return err
		}
	}
	rd.setBlock(nil)
	return nil
}

// setBlock makes b the block statements attach to. The previous block's
// statements, gathered in a reused buffer, are stored in one exactly
// sized slice: a block is never re-entered, and growing every block's
// slice by doubling would allocate about twice what the app keeps.
func (rd *reader) setBlock(b *ir.Block) {
	if len(rd.stmts) > 0 {
		rd.block.Stmts = append(make([]ir.Stmt, 0, len(rd.stmts)), rd.stmts...)
		clear(rd.stmts)
	}
	rd.block, rd.stmts = b, rd.stmts[:0]
}

// directive applies one non-blank, non-comment line.
func (rd *reader) directive(f []string) error {
	if len(f) < minArity(f[0]) {
		return rd.fail("too few fields")
	}
	app := rd.app
	switch f[0] {
	case "app":
		app.Name = rd.intern(f[1])
	case "package":
		app.Manifest.Package = rd.intern(f[1])
	case "installs":
		app.Installs = rd.intern(strings.TrimPrefix(rd.line, "installs "))
	case "activity":
		c := apk.Component{Class: rd.intern(f[1])}
		if len(f) >= 4 && f[2] == "layout" {
			c.Layout = rd.intern(f[3])
		}
		app.Manifest.Activities = append(app.Manifest.Activities, c)
	case "service":
		app.Manifest.Services = append(app.Manifest.Services, apk.Component{Class: rd.intern(f[1])})
	case "receiver":
		c := apk.Component{Class: rd.intern(f[1])}
		if len(f) >= 4 && f[2] == "filter" {
			c.IntentFilters = []string{rd.intern(f[3])}
		}
		app.Manifest.Receivers = append(app.Manifest.Receivers, c)
	case "layout":
		name := rd.intern(f[1])
		app.Layouts[name] = &apk.Layout{Name: name}
		rd.views[name] = map[int]*apk.View{}
	case "view":
		if len(f) != 5 {
			return rd.fail("view needs LAYOUT ID TYPE PARENT")
		}
		id, err1 := strconv.Atoi(f[2])
		parent, err2 := strconv.Atoi(f[4])
		if err1 != nil || err2 != nil {
			return rd.fail("bad view ids")
		}
		l, ok := app.Layouts[f[1]]
		if !ok {
			return rd.fail("view before layout")
		}
		byID := rd.views[f[1]]
		v := &apk.View{ID: id, Type: rd.intern(f[3])}
		byID[id] = v
		if parent < 0 {
			l.Root = v
		} else {
			pv, ok := byID[parent]
			if !ok {
				return rd.fail("unknown parent view")
			}
			pv.Children = append(pv.Children, v)
		}
	case "xmlcb":
		if len(f) != 5 {
			return rd.fail("xmlcb needs LAYOUT ID KIND METHOD")
		}
		id, _ := strconv.Atoi(f[2])
		v, ok := rd.views[f[1]][id]
		if !ok {
			return rd.fail("xmlcb before view")
		}
		if v.XMLCallbacks == nil {
			v.XMLCallbacks = map[string]string{}
		}
		v.XMLCallbacks[rd.intern(f[3])] = rd.intern(f[4])
	case "class":
		c, err := rd.parseClass(f)
		if err != nil {
			return rd.fail(err.Error())
		}
		if _, dup := rd.classes[c.Name]; dup {
			return rd.fail("duplicate class")
		}
		if rd.prog.Class(c.Name) != nil {
			return rd.fail("redeclares a framework class")
		}
		rd.classes[c.Name] = c
		rd.prog.AddClass(c)
	case "field":
		c, ok := rd.classes[f[1]]
		if !ok {
			return rd.fail("field before class")
		}
		c.Fields = append(c.Fields, rd.intern(f[2]))
	case "method":
		c, ok := rd.classes[f[1]]
		if !ok {
			return rd.fail("method before class")
		}
		if _, dup := c.Methods[f[2]]; dup {
			return rd.fail("duplicate method")
		}
		m := &ir.Method{Name: rd.intern(f[2])}
		for i := 3; i < len(f); i++ {
			switch f[i] {
			case "static":
				m.Static = true
			case "params":
				i++
				if i < len(f) {
					m.Params = rd.internList(f[i])
				}
			}
		}
		c.AddMethod(m)
		rd.method = m
		rd.setBlock(nil)
	case "block":
		m := rd.method
		if m == nil || f[1] != m.Class.Name || f[2] != m.Name {
			return rd.fail("block outside its method")
		}
		idx, err := strconv.Atoi(f[3])
		if err != nil || idx != len(m.Blocks) {
			return rd.fail("blocks must be declared in order")
		}
		b := &ir.Block{Index: idx}
		for i := 4; i < len(f); i++ {
			if f[i] == "succ" && i+1 < len(f) {
				if b.Succs, err = appendInts(b.Succs, f[i+1]); err != nil {
					return rd.fail("bad succ")
				}
			}
		}
		m.Blocks = append(m.Blocks, b)
		rd.setBlock(b)
	default:
		if rd.block == nil {
			return rd.fail("statement outside a block")
		}
		st, err := rd.parseStmt(f, rd.line)
		if err != nil {
			return rd.fail(err.Error())
		}
		rd.stmts = append(rd.stmts, st)
	}
	return nil
}

// minArity is the minimum field count per directive and statement —
// checked up front so handlers can index positionally. An unknown
// keyword has none; it fails as an unknown statement.
func minArity(keyword string) int {
	switch keyword {
	case "app", "package", "installs", "activity", "service", "receiver",
		"layout", "class", "ret":
		return 2
	case "field", "method", "new", "const", "move":
		return 3
	case "block", "load", "store", "sload", "sstore", "if":
		return 4
	case "view", "xmlcb", "binop":
		return 5
	case "call":
		return 6
	}
	return 0
}

// appendInts appends the comma-separated decimal list s to out.
func appendInts(out []int, s string) ([]int, error) {
	for {
		part, rest, more := strings.Cut(s, ",")
		n, err := strconv.Atoi(part)
		if err != nil {
			return out, err
		}
		out = append(out, n)
		if !more {
			return out, nil
		}
		s = rest
	}
}

func (rd *reader) parseClass(f []string) (*ir.Class, error) {
	c := ir.NewClass(rd.intern(f[1]), frontend.Object)
	for i := 2; i < len(f); i++ {
		switch f[i] {
		case "extends":
			i++
			if i >= len(f) {
				return nil, errors.New("extends needs a class")
			}
			c.Super = rd.intern(f[i])
		case "implements":
			i++
			if i >= len(f) {
				return nil, errors.New("implements needs interfaces")
			}
			c.Interfaces = rd.internList(f[i])
		case "library":
			c.Library = true
		}
	}
	return c, nil
}

// operand interns an optional operand ("_" = none).
func (rd *reader) operand(v string) string {
	if v == "_" {
		return ""
	}
	return rd.intern(v)
}

// parseStmt builds one statement from its fields f and its trimmed
// line. f has at least minArity(f[0]) fields.
func (rd *reader) parseStmt(f []string, line string) (ir.Stmt, error) {
	switch f[0] {
	case "new":
		if len(f) != 3 {
			return nil, errors.New("new DST CLASS")
		}
		return &ir.New{Dst: rd.intern(f[1]), Class: rd.intern(f[2]), Site: -1}, nil
	case "const":
		if f[2] != "null" && len(f) < 4 {
			return nil, fmt.Errorf("const %s needs a value", f[2])
		}
		switch f[2] {
		case "int":
			n, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, err
			}
			return &ir.Const{Dst: rd.intern(f[1]), Kind: ir.ConstInt, Int: n}, nil
		case "bool":
			return &ir.Const{Dst: rd.intern(f[1]), Kind: ir.ConstBool, Bool: f[3] == "true"}, nil
		case "null":
			return &ir.Const{Dst: rd.intern(f[1]), Kind: ir.ConstNull}, nil
		case "str":
			// The literal is everything after the third field: it may
			// itself hold separators, and the destination may be named
			// "str". Unquote returns a substring of its input when
			// nothing needed unescaping, so the value is interned too.
			s, err := strconv.Unquote(afterFields(line, 3))
			if err != nil {
				return nil, err
			}
			return &ir.Const{Dst: rd.intern(f[1]), Kind: ir.ConstString, Str: rd.intern(s)}, nil
		}
		return nil, fmt.Errorf("bad const kind %q", f[2])
	case "move":
		return &ir.Move{Dst: rd.intern(f[1]), Src: rd.intern(f[2])}, nil
	case "load":
		return &ir.Load{Dst: rd.intern(f[1]), Obj: rd.intern(f[2]), Field: rd.intern(f[3])}, nil
	case "store":
		return &ir.Store{Obj: rd.intern(f[1]), Field: rd.intern(f[2]), Src: rd.intern(f[3])}, nil
	case "sload":
		return &ir.StaticLoad{Dst: rd.intern(f[1]), Class: rd.intern(f[2]), Field: rd.intern(f[3])}, nil
	case "sstore":
		return &ir.StaticStore{Class: rd.intern(f[1]), Field: rd.intern(f[2]), Src: rd.intern(f[3])}, nil
	case "binop":
		op, err := parseBinOp(f[2])
		if err != nil {
			return nil, err
		}
		return &ir.BinOp{Dst: rd.intern(f[1]), Op: op, A: rd.intern(f[3]), B: rd.intern(f[4])}, nil
	case "call":
		var kind ir.InvokeKind
		switch f[1] {
		case "v":
			kind = ir.InvokeVirtual
		case "s":
			kind = ir.InvokeStatic
		case "p":
			kind = ir.InvokeSpecial
		default:
			return nil, fmt.Errorf("bad call kind %q", f[1])
		}
		var args []string
		if len(f) > 6 {
			args = make([]string, len(f)-6)
			for i, a := range f[6:] {
				args[i] = rd.intern(a)
			}
		}
		return &ir.Invoke{
			Kind: kind, Dst: rd.operand(f[2]), Recv: rd.operand(f[3]),
			Class: rd.intern(f[4]), Method: rd.intern(f[5]), Args: args,
		}, nil
	case "if":
		op, err := parseCmpOp(f[2])
		if err != nil {
			return nil, err
		}
		var b ir.Operand
		if f[3] != "null" && len(f) < 5 {
			return nil, fmt.Errorf("if operand %s needs a value", f[3])
		}
		switch f[3] {
		case "var":
			b = ir.VarOperand(rd.intern(f[4]))
		case "int":
			n, err := strconv.ParseInt(f[4], 10, 64)
			if err != nil {
				return nil, err
			}
			b = ir.IntOperand(n)
		case "bool":
			b = ir.BoolOperand(f[4] == "true")
		case "null":
			b = ir.NullOperand()
		default:
			return nil, fmt.Errorf("bad if operand %q", f[3])
		}
		return &ir.If{A: rd.intern(f[1]), Op: op, B: b}, nil
	case "ret":
		return &ir.Return{Src: rd.operand(f[1])}, nil
	}
	return nil, fmt.Errorf("unknown statement %q", f[0])
}

func parseBinOp(s string) (ir.BinOpKind, error) {
	for _, op := range []ir.BinOpKind{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("bad binop %q", s)
}

func parseCmpOp(s string) (ir.CmpOp, error) {
	for _, op := range []ir.CmpOp{ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("bad cmp op %q", s)
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// sepAt reports whether the rune at s[i] separates fields, and its
// width. Separators are exactly those of strings.Fields: the ASCII
// whitespace in asciiSpace, and unicode.IsSpace beyond ASCII (an
// invalid byte is U+FFFD, not a separator).
func sepAt(s string, i int) (sep bool, width int) {
	if c := s[i]; c < utf8.RuneSelf {
		return asciiSpace[c], 1
	}
	r, w := utf8.DecodeRuneInString(s[i:])
	return unicode.IsSpace(r), w
}

// nextField returns the bounds of the first field of s at or after byte
// i, or an empty range at len(s) when none is left.
func nextField(s string, i int) (start, end int) {
	for i < len(s) {
		sep, w := sepAt(s, i)
		if !sep {
			break
		}
		i += w
	}
	start = i
	for i < len(s) {
		sep, w := sepAt(s, i)
		if sep {
			break
		}
		i += w
	}
	return start, i
}

// splitFields appends the fields of s to dst — strings.Fields without
// the allocation. Like strings.Fields it scans an all-ASCII line with
// the table alone, and restarts rune by rune at the first non-ASCII
// byte. The ASCII pass earns its lines: splitting every line through
// nextField alone made BenchmarkKernelParse about a quarter slower.
func splitFields(dst []string, s string) []string {
	n, start := len(dst), -1
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= utf8.RuneSelf {
			dst = dst[:n]
			for i := 0; ; {
				start, end := nextField(s, i)
				if start == end {
					return dst
				}
				dst = append(dst, s[start:end])
				i = end
			}
		}
		switch {
		case !asciiSpace[c]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst = append(dst, s[start:i])
			start = -1
		}
	}
	if start >= 0 {
		dst = append(dst, s[start:])
	}
	return dst
}

// afterFields returns what follows the first n fields of s, trimmed:
// the rest of a line whose last operand may hold separators.
func afterFields(s string, n int) string {
	end := 0
	for ; n > 0; n-- {
		_, end = nextField(s, end)
	}
	return strings.TrimSpace(s[end:])
}
