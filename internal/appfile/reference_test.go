package appfile

// The line reader Read replaced: bufio.Scanner + strings.TrimSpace +
// strings.Fields per line. It is kept, unchanged apart from the ref
// prefix on its names, as FuzzRead's reference: the byte-level reader
// must fail exactly where this one fails, with the same error text, and
// otherwise build the same app — except where this one panics or
// misplaces a string literal (see FuzzRead).

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"sierra/internal/apk"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// refRead parses an app file, installs the framework, finalizes the
// program, and validates the result.
func refRead(r io.Reader) (*apk.App, error) {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	app := &apk.App{Program: p, Layouts: map[string]*apk.Layout{}}

	classes := map[string]*ir.Class{}
	viewsByLayout := map[string]map[int]*apk.View{}
	var curMethod *ir.Method
	var curBlock *ir.Block
	var curClassOfMethod string

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		fail := func(msg string) error {
			return fmt.Errorf("appfile: line %d: %s: %q", lineNo, msg, line)
		}
		if n, ok := refMinArity[f[0]]; ok && len(f) < n {
			return nil, fail("too few fields")
		}
		switch f[0] {
		case "app":
			if len(f) < 2 {
				return nil, fail("app needs a name")
			}
			app.Name = f[1]
		case "package":
			app.Manifest.Package = f[1]
		case "installs":
			app.Installs = strings.TrimPrefix(line, "installs ")
		case "activity":
			c := apk.Component{Class: f[1]}
			if len(f) >= 4 && f[2] == "layout" {
				c.Layout = f[3]
			}
			app.Manifest.Activities = append(app.Manifest.Activities, c)
		case "service":
			app.Manifest.Services = append(app.Manifest.Services, apk.Component{Class: f[1]})
		case "receiver":
			c := apk.Component{Class: f[1]}
			if len(f) >= 4 && f[2] == "filter" {
				c.IntentFilters = []string{f[3]}
			}
			app.Manifest.Receivers = append(app.Manifest.Receivers, c)
		case "layout":
			app.Layouts[f[1]] = &apk.Layout{Name: f[1]}
			viewsByLayout[f[1]] = map[int]*apk.View{}
		case "view":
			if len(f) != 5 {
				return nil, fail("view needs LAYOUT ID TYPE PARENT")
			}
			id, err1 := strconv.Atoi(f[2])
			parent, err2 := strconv.Atoi(f[4])
			if err1 != nil || err2 != nil {
				return nil, fail("bad view ids")
			}
			l, ok := app.Layouts[f[1]]
			if !ok {
				return nil, fail("view before layout")
			}
			v := &apk.View{ID: id, Type: f[3]}
			viewsByLayout[f[1]][id] = v
			if parent < 0 {
				l.Root = v
			} else {
				pv, ok := viewsByLayout[f[1]][parent]
				if !ok {
					return nil, fail("unknown parent view")
				}
				pv.Children = append(pv.Children, v)
			}
		case "xmlcb":
			if len(f) != 5 {
				return nil, fail("xmlcb needs LAYOUT ID KIND METHOD")
			}
			id, _ := strconv.Atoi(f[2])
			v, ok := viewsByLayout[f[1]][id]
			if !ok {
				return nil, fail("xmlcb before view")
			}
			if v.XMLCallbacks == nil {
				v.XMLCallbacks = map[string]string{}
			}
			v.XMLCallbacks[f[3]] = f[4]
		case "class":
			c, err := refParseClassLine(f)
			if err != nil {
				return nil, fail(err.Error())
			}
			classes[c.Name] = c
			p.AddClass(c)
		case "field":
			c, ok := classes[f[1]]
			if !ok {
				return nil, fail("field before class")
			}
			c.Fields = append(c.Fields, f[2])
		case "method":
			c, ok := classes[f[1]]
			if !ok {
				return nil, fail("method before class")
			}
			m := &ir.Method{Name: f[2]}
			for i := 3; i < len(f); i++ {
				switch f[i] {
				case "static":
					m.Static = true
				case "params":
					i++
					if i < len(f) {
						m.Params = strings.Split(f[i], ",")
					}
				}
			}
			c.AddMethod(m)
			curMethod = m
			curClassOfMethod = c.Name
			curBlock = nil
		case "block":
			if curMethod == nil || f[1] != curClassOfMethod || f[2] != curMethod.Name {
				return nil, fail("block outside its method")
			}
			idx, err := strconv.Atoi(f[3])
			if err != nil || idx != len(curMethod.Blocks) {
				return nil, fail("blocks must be declared in order")
			}
			b := &ir.Block{Index: idx}
			for i := 4; i < len(f); i++ {
				if f[i] == "succ" && i+1 < len(f) {
					for _, s := range strings.Split(f[i+1], ",") {
						n, err := strconv.Atoi(s)
						if err != nil {
							return nil, fail("bad succ")
						}
						b.Succs = append(b.Succs, n)
					}
				}
			}
			curMethod.Blocks = append(curMethod.Blocks, b)
			curBlock = b
		default:
			if curBlock == nil {
				return nil, fail("statement outside a block")
			}
			st, err := refParseStmt(f, line)
			if err != nil {
				return nil, fail(err.Error())
			}
			curBlock.Stmts = append(curBlock.Stmts, st)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	p.Finalize()
	if err := app.Validate(); err != nil {
		return nil, err
	}
	return app, nil
}

// refMinArity is the minimum field count per directive and statement —
// checked up front so handlers can index positionally.
var refMinArity = map[string]int{
	"app": 2, "package": 2, "installs": 2,
	"activity": 2, "service": 2, "receiver": 2,
	"layout": 2, "view": 5, "xmlcb": 5,
	"class": 2, "field": 3, "method": 3, "block": 4,
	"new": 3, "const": 3, "move": 3, "load": 4, "store": 4,
	"sload": 4, "sstore": 4, "binop": 5, "call": 6, "if": 4, "ret": 2,
}

func refParseClassLine(f []string) (*ir.Class, error) {
	if len(f) < 2 {
		return nil, fmt.Errorf("class needs a name")
	}
	c := ir.NewClass(f[1], frontend.Object)
	for i := 2; i < len(f); i++ {
		switch f[i] {
		case "extends":
			i++
			if i >= len(f) {
				return nil, fmt.Errorf("extends needs a class")
			}
			c.Super = f[i]
		case "implements":
			i++
			if i >= len(f) {
				return nil, fmt.Errorf("implements needs interfaces")
			}
			c.Interfaces = strings.Split(f[i], ",")
		case "library":
			c.Library = true
		}
	}
	return c, nil
}

func refNoneEmpty(v string) string {
	if v == "_" {
		return ""
	}
	return v
}

func refParseStmt(f []string, line string) (ir.Stmt, error) {
	switch f[0] {
	case "new":
		if len(f) != 3 {
			return nil, fmt.Errorf("new DST CLASS")
		}
		return &ir.New{Dst: f[1], Class: f[2], Site: -1}, nil
	case "const":
		if len(f) < 3 {
			return nil, fmt.Errorf("const needs kind")
		}
		if f[2] != "null" && len(f) < 4 {
			return nil, fmt.Errorf("const %s needs a value", f[2])
		}
		switch f[2] {
		case "int":
			n, err := strconv.ParseInt(f[3], 10, 64)
			if err != nil {
				return nil, err
			}
			return &ir.Const{Dst: f[1], Kind: ir.ConstInt, Int: n}, nil
		case "bool":
			return &ir.Const{Dst: f[1], Kind: ir.ConstBool, Bool: f[3] == "true"}, nil
		case "null":
			return &ir.Const{Dst: f[1], Kind: ir.ConstNull}, nil
		case "str":
			s, err := strconv.Unquote(strings.TrimSpace(strings.SplitN(line, " str ", 2)[1]))
			if err != nil {
				return nil, err
			}
			return &ir.Const{Dst: f[1], Kind: ir.ConstString, Str: s}, nil
		}
		return nil, fmt.Errorf("bad const kind %q", f[2])
	case "move":
		return &ir.Move{Dst: f[1], Src: f[2]}, nil
	case "load":
		return &ir.Load{Dst: f[1], Obj: f[2], Field: f[3]}, nil
	case "store":
		return &ir.Store{Obj: f[1], Field: f[2], Src: f[3]}, nil
	case "sload":
		return &ir.StaticLoad{Dst: f[1], Class: f[2], Field: f[3]}, nil
	case "sstore":
		return &ir.StaticStore{Class: f[1], Field: f[2], Src: f[3]}, nil
	case "binop":
		op, err := refParseBinOp(f[2])
		if err != nil {
			return nil, err
		}
		return &ir.BinOp{Dst: f[1], Op: op, A: f[3], B: f[4]}, nil
	case "call":
		if len(f) < 6 {
			return nil, fmt.Errorf("call KIND DST RECV CLASS METHOD [ARGS]")
		}
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
		return &ir.Invoke{
			Kind: kind, Dst: refNoneEmpty(f[2]), Recv: refNoneEmpty(f[3]),
			Class: f[4], Method: f[5], Args: append([]string(nil), f[6:]...),
		}, nil
	case "if":
		op, err := refParseCmpOp(f[2])
		if err != nil {
			return nil, err
		}
		var b ir.Operand
		if f[3] != "null" && len(f) < 5 {
			return nil, fmt.Errorf("if operand %s needs a value", f[3])
		}
		switch f[3] {
		case "var":
			b = ir.VarOperand(f[4])
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
		return &ir.If{A: f[1], Op: op, B: b}, nil
	case "ret":
		return &ir.Return{Src: refNoneEmpty(f[1])}, nil
	}
	return nil, fmt.Errorf("unknown statement %q", f[0])
}

func refParseBinOp(s string) (ir.BinOpKind, error) {
	for _, op := range []ir.BinOpKind{ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("bad binop %q", s)
}

func refParseCmpOp(s string) (ir.CmpOp, error) {
	for _, op := range []ir.CmpOp{ir.CmpEQ, ir.CmpNE, ir.CmpLT, ir.CmpLE, ir.CmpGT, ir.CmpGE} {
		if op.String() == s {
			return op, nil
		}
	}
	return 0, fmt.Errorf("bad cmp op %q", s)
}
