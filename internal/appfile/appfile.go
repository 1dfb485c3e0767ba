// Package appfile serializes apps to a line-oriented textual format and
// parses them back. It lets cmd/corpusgen dump generated apps for
// inspection and cmd/sierra analyze hand-written .app files, standing in
// for the APK container real tooling consumes.
//
// Format (one directive per line, # comments):
//
//	app NAME
//	package PKG
//	installs TEXT
//	activity CLASS [layout NAME]
//	service CLASS
//	receiver CLASS [filter ACTION]
//	layout NAME
//	view LAYOUT ID TYPE PARENTID            (PARENTID -1 = root)
//	xmlcb LAYOUT ID KIND METHOD
//	class NAME [extends SUPER] [implements I1,I2] [library]
//	field CLASS NAME
//	method CLASS NAME [static] [params P1,P2]
//	block CLASS METHOD INDEX [succ S1,S2]
//	<stmt lines, see below>
//
// Statements (inside the current block):
//
//	new DST CLASS
//	const DST int N | const DST bool true|false | const DST null | const DST str "S"
//	move DST SRC
//	load DST OBJ FIELD
//	store OBJ FIELD SRC
//	sload DST CLASS FIELD
//	sstore CLASS FIELD SRC
//	binop DST OP A B
//	call v|s|p DST RECV CLASS METHOD [ARGS...]   (DST/RECV "_" = none)
//	if A OP (var V | int N | bool B | null)
//	ret SRC|_
package appfile

import (
	"io"
	"sort"
	"strconv"

	"sierra/internal/apk"
	"sierra/internal/ir"
)

// Write serializes the app (manifest, layouts, and non-framework
// classes).
func Write(w io.Writer, app *apk.App) error {
	_, err := w.Write(appendApp(make([]byte, 0, 1<<14), app))
	return err
}

// appendApp renders the whole canonical serialization into b's spare
// capacity. Serialization is the corpus-generation hot path — every
// streamed app pays it once — so the entire format is emitted with
// byte appends (strconv.Append* for numbers), never fmt.
func appendApp(b []byte, app *apk.App) []byte {
	b = append(b, "app "...)
	b = append(b, app.Name...)
	b = append(b, '\n')
	if app.Manifest.Package != "" {
		b = append(b, "package "...)
		b = append(b, app.Manifest.Package...)
		b = append(b, '\n')
	}
	if app.Installs != "" {
		b = append(b, "installs "...)
		b = append(b, app.Installs...)
		b = append(b, '\n')
	}
	for _, c := range app.Manifest.Activities {
		b = append(b, "activity "...)
		b = append(b, c.Class...)
		if c.Layout != "" {
			b = append(b, " layout "...)
			b = append(b, c.Layout...)
		}
		b = append(b, '\n')
	}
	for _, c := range app.Manifest.Services {
		b = append(b, "service "...)
		b = append(b, c.Class...)
		b = append(b, '\n')
	}
	for _, c := range app.Manifest.Receivers {
		b = append(b, "receiver "...)
		b = append(b, c.Class...)
		if len(c.IntentFilters) > 0 {
			b = append(b, " filter "...)
			b = append(b, c.IntentFilters[0]...)
		}
		b = append(b, '\n')
	}
	names := make([]string, 0, len(app.Layouts))
	for n := range app.Layouts {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		b = append(b, "layout "...)
		b = append(b, n...)
		b = append(b, '\n')
		b = appendViews(b, n, app.Layouts[n].Root, -1)
	}
	for _, c := range app.Program.Classes() {
		if c.Framework {
			continue
		}
		b = appendClass(b, c)
	}
	return b
}

// Bytes serializes the app to its canonical textual form — the
// serialization Write produces, in memory. Because Write emits layouts,
// fields, methods, and callbacks in sorted/declaration order, two
// structurally identical apps yield identical bytes, which is what
// makes the form usable as a content-addressed cache key (see
// internal/batch). Serialize before analysis: harness generation
// extends the program with synthetic classes that would otherwise leak
// into the digest.
func Bytes(app *apk.App) ([]byte, error) {
	return appendApp(make([]byte, 0, 1<<14), app), nil
}

// AppendBytes is Bytes writing into dst's spare capacity — the
// streaming pipeline's allocation-recycling form. dst is typically a
// pooled buffer sliced to length 0; the returned slice shares its
// backing array when capacity suffices.
func AppendBytes(dst []byte, app *apk.App) ([]byte, error) {
	return appendApp(dst, app), nil
}

func appendViews(b []byte, layout string, v *apk.View, parent int) []byte {
	if v == nil {
		return b
	}
	b = append(b, "view "...)
	b = append(b, layout...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(v.ID), 10)
	b = append(b, ' ')
	b = append(b, v.Type...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(parent), 10)
	b = append(b, '\n')
	kinds := make([]string, 0, len(v.XMLCallbacks))
	for k := range v.XMLCallbacks {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		b = append(b, "xmlcb "...)
		b = append(b, layout...)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v.ID), 10)
		b = append(b, ' ')
		b = append(b, k...)
		b = append(b, ' ')
		b = append(b, v.XMLCallbacks[k]...)
		b = append(b, '\n')
	}
	for _, c := range v.Children {
		b = appendViews(b, layout, c, v.ID)
	}
	return b
}

// appendJoin appends parts separated by commas (strings.Join without
// the intermediate string).
func appendJoin(b []byte, parts []string) []byte {
	for i, p := range parts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, p...)
	}
	return b
}

func appendClass(b []byte, c *ir.Class) []byte {
	b = append(b, "class "...)
	b = append(b, c.Name...)
	if c.Super != "" {
		b = append(b, " extends "...)
		b = append(b, c.Super...)
	}
	if len(c.Interfaces) > 0 {
		b = append(b, " implements "...)
		b = appendJoin(b, c.Interfaces)
	}
	if c.Library {
		b = append(b, " library"...)
	}
	b = append(b, '\n')
	for _, f := range c.Fields {
		b = append(b, "field "...)
		b = append(b, c.Name...)
		b = append(b, ' ')
		b = append(b, f...)
		b = append(b, '\n')
	}
	for _, m := range c.MethodsSorted() {
		b = append(b, "method "...)
		b = append(b, c.Name...)
		b = append(b, ' ')
		b = append(b, m.Name...)
		if m.Static {
			b = append(b, " static"...)
		}
		if len(m.Params) > 0 {
			b = append(b, " params "...)
			b = appendJoin(b, m.Params)
		}
		b = append(b, '\n')
		for bi, blk := range m.Blocks {
			b = append(b, "block "...)
			b = append(b, c.Name...)
			b = append(b, ' ')
			b = append(b, m.Name...)
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(bi), 10)
			if len(blk.Succs) > 0 {
				b = append(b, " succ "...)
				for i, s := range blk.Succs {
					if i > 0 {
						b = append(b, ',')
					}
					b = strconv.AppendInt(b, int64(s), 10)
				}
			}
			b = append(b, '\n')
			for _, s := range blk.Stmts {
				b = AppendStmt(b, s)
				b = append(b, '\n')
			}
		}
	}
	return b
}

// StmtLine renders one statement in the canonical .app syntax — the
// exact line Write emits, without its newline.
func StmtLine(s ir.Stmt) string { return string(AppendStmt(nil, s)) }

// appendOrUnderscore appends v, or "_" when v is empty (the format's
// none marker for optional operands).
func appendOrUnderscore(b []byte, v string) []byte {
	if v == "" {
		return append(b, '_')
	}
	return append(b, v...)
}

// AppendStmt appends StmtLine(s) to b. It is both the serialization
// and the fingerprint hot path — internal/incremental hashes each
// method's statements as these canonical lines, rendered into one
// reused buffer per submission, so the fingerprint and the serialized
// form cannot drift apart — and it appends bytes directly instead of
// building intermediate strings (which dominated profiles of both).
func AppendStmt(b []byte, s ir.Stmt) []byte {
	switch st := s.(type) {
	case *ir.New:
		b = append(b, "new "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		return append(b, st.Class...)
	case *ir.Const:
		b = append(b, "const "...)
		b = append(b, st.Dst...)
		switch st.Kind {
		case ir.ConstInt:
			b = append(b, " int "...)
			return strconv.AppendInt(b, st.Int, 10)
		case ir.ConstBool:
			b = append(b, " bool "...)
			return strconv.AppendBool(b, st.Bool)
		case ir.ConstNull:
			return append(b, " null"...)
		default:
			b = append(b, " str "...)
			return strconv.AppendQuote(b, st.Str)
		}
	case *ir.Move:
		b = append(b, "move "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		return append(b, st.Src...)
	case *ir.Load:
		b = append(b, "load "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		b = append(b, st.Obj...)
		b = append(b, ' ')
		return append(b, st.Field...)
	case *ir.Store:
		b = append(b, "store "...)
		b = append(b, st.Obj...)
		b = append(b, ' ')
		b = append(b, st.Field...)
		b = append(b, ' ')
		return append(b, st.Src...)
	case *ir.StaticLoad:
		b = append(b, "sload "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		b = append(b, st.Class...)
		b = append(b, ' ')
		return append(b, st.Field...)
	case *ir.StaticStore:
		b = append(b, "sstore "...)
		b = append(b, st.Class...)
		b = append(b, ' ')
		b = append(b, st.Field...)
		b = append(b, ' ')
		return append(b, st.Src...)
	case *ir.BinOp:
		b = append(b, "binop "...)
		b = append(b, st.Dst...)
		b = append(b, ' ')
		b = append(b, st.Op.String()...)
		b = append(b, ' ')
		b = append(b, st.A...)
		b = append(b, ' ')
		return append(b, st.B...)
	case *ir.Invoke:
		b = append(b, "call "...)
		switch st.Kind {
		case ir.InvokeStatic:
			b = append(b, 's')
		case ir.InvokeSpecial:
			b = append(b, 'p')
		default:
			b = append(b, 'v')
		}
		b = append(b, ' ')
		b = appendOrUnderscore(b, st.Dst)
		b = append(b, ' ')
		b = appendOrUnderscore(b, st.Recv)
		b = append(b, ' ')
		b = append(b, st.Class...)
		b = append(b, ' ')
		b = append(b, st.Method...)
		for _, a := range st.Args {
			b = append(b, ' ')
			b = append(b, a...)
		}
		return b
	case *ir.If:
		b = append(b, "if "...)
		b = append(b, st.A...)
		b = append(b, ' ')
		b = append(b, st.Op.String()...)
		b = append(b, ' ')
		op := st.B
		switch {
		case op.IsVar:
			b = append(b, "var "...)
			return append(b, op.Var...)
		case op.Kind == ir.ConstInt:
			b = append(b, "int "...)
			return strconv.AppendInt(b, op.Int, 10)
		case op.Kind == ir.ConstBool:
			b = append(b, "bool "...)
			return strconv.AppendBool(b, op.Bool)
		default:
			return append(b, "null"...)
		}
	case *ir.Return:
		b = append(b, "ret "...)
		return appendOrUnderscore(b, st.Src)
	default:
		return append(b, "# unknown"...)
	}
}
