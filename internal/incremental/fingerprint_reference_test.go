package incremental

// This file keeps the fingerprint as it was computed before Compute
// rendered into reused buffers: shape lines printed with fmt into a
// streaming hash, one pair of fresh buffers per method, every statement
// rendered to its own string, and hex digests. It is the oracle for
// TestComputeMatchesReference and FuzzCompute. Only identifiers are
// renamed so that it can live beside the shipped code.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strconv"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

// refMethodFP is one method's pair of body digests.
type refMethodFP struct {
	// Full digests every canonical statement line plus the block
	// structure — equal Full means the body is textually identical.
	Full string
	// Skeleton digests the same lines with If and BinOp operands masked
	// (the statement fields no fixpoint stage reads; see
	// pointer.SolverReads). Equal Skeleton with unequal Full is the
	// incremental window: the body changed, but only in ways invisible
	// to everything before refutation.
	Skeleton string
}

// refFingerprint is an app's incremental identity: a digest of
// everything outside method bodies plus per-method body digests.
type refFingerprint struct {
	// Shape digests the manifest, layouts (views and XML callbacks),
	// and every class/field/method declaration — all structure the
	// harness generator and the analyses key on besides bodies.
	Shape string
	// Methods maps ir qualified names ("Class#method") to body digests
	// for every non-framework method.
	Methods map[string]refMethodFP
}

// computeReference fingerprints an app. Call it on the freshly parsed
// app, before analysis: harness generation extends the program with
// synthetic classes that must not leak into the fingerprint (the same
// rule appfile.Bytes follows for cache digests).
func computeReference(app *apk.App) *refFingerprint {
	shape := sha256.New()
	line := func(h hash.Hash, format string, args ...any) {
		fmt.Fprintf(h, format, args...)
		h.Write([]byte{'\n'})
	}
	line(shape, "app %s", app.Name)
	line(shape, "package %s", app.Manifest.Package)
	line(shape, "installs %s", app.Installs)
	line(shape, "main %s", app.Manifest.MainActivity)
	for _, c := range app.Manifest.Activities {
		line(shape, "activity %s layout %s", c.Class, c.Layout)
	}
	for _, c := range app.Manifest.Services {
		line(shape, "service %s %v", c.Class, c.IntentFilters)
	}
	for _, c := range app.Manifest.Receivers {
		line(shape, "receiver %s %v", c.Class, c.IntentFilters)
	}
	layouts := make([]string, 0, len(app.Layouts))
	for n := range app.Layouts {
		layouts = append(layouts, n)
	}
	sort.Strings(layouts)
	for _, n := range layouts {
		line(shape, "layout %s", n)
		refHashView(shape, n, app.Layouts[n].Root, -1)
	}

	fp := &refFingerprint{Methods: map[string]refMethodFP{}}
	for _, c := range app.Program.Classes() {
		if c.Framework {
			continue
		}
		line(shape, "class %s extends %s implements %v library %t",
			c.Name, c.Super, c.Interfaces, c.Library)
		for _, f := range c.Fields {
			line(shape, "field %s %s", c.Name, f)
		}
		for _, m := range c.MethodsSorted() {
			line(shape, "method %s %s static %t params %v", c.Name, m.Name, m.Static, m.Params)
			fp.Methods[m.QualifiedName()] = refMethodFPOf(m)
		}
	}
	fp.Shape = hex.EncodeToString(shape.Sum(nil))
	return fp
}

func refHashView(h hash.Hash, layout string, v *apk.View, parent int) {
	if v == nil {
		return
	}
	fmt.Fprintf(h, "view %s %d %s %d\n", layout, v.ID, v.Type, parent)
	kinds := make([]string, 0, len(v.XMLCallbacks))
	for k := range v.XMLCallbacks {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Fprintf(h, "xmlcb %s %d %s %s\n", layout, v.ID, k, v.XMLCallbacks[k])
	}
	for _, c := range v.Children {
		refHashView(h, layout, c, v.ID)
	}
}

func refMethodFPOf(m *ir.Method) refMethodFP {
	// Hot path: one buffered pass per digest, no fmt. Full and Skeleton
	// share every line except masked statements, so the buffers diverge
	// only there.
	var fullBuf, skelBuf []byte
	for bi, b := range m.Blocks {
		header := refBlockHeader(nil, bi, b.Succs)
		fullBuf = append(fullBuf, header...)
		skelBuf = append(skelBuf, header...)
		for _, s := range b.Stmts {
			canon := appfile.StmtLine(s)
			fullBuf = append(append(fullBuf, canon...), '\n')
			if pointer.SolverReads(s) {
				skelBuf = append(append(skelBuf, canon...), '\n')
			} else {
				skelBuf = append(append(skelBuf, refSkeletonLine(s)...), '\n')
			}
		}
	}
	full, skel := sha256.Sum256(fullBuf), sha256.Sum256(skelBuf)
	return refMethodFP{
		Full:     hex.EncodeToString(full[:]),
		Skeleton: hex.EncodeToString(skel[:]),
	}
}

// refBlockHeader renders "block N succ [a b ...]\n" exactly as
// fmt.Sprintf("block %d succ %v\n", ...) would, without fmt.
func refBlockHeader(dst []byte, bi int, succs []int) []byte {
	dst = append(dst, "block "...)
	dst = strconv.AppendInt(dst, int64(bi), 10)
	dst = append(dst, " succ ["...)
	for i, s := range succs {
		if i > 0 {
			dst = append(dst, ' ')
		}
		dst = strconv.AppendInt(dst, int64(s), 10)
	}
	dst = append(dst, "]\n"...)
	return dst
}

// refSkeletonLine masks the operand fields of the statements the
// fixpoint stages never read. BinOp keeps its destination (cheap, and
// keeps the mask conservative even though no solver stage reads BinOp
// defs either); If keeps nothing — its control-flow effect lives in the
// block successor lines.
func refSkeletonLine(s ir.Stmt) string {
	switch st := s.(type) {
	case *ir.If:
		return "if ?"
	case *ir.BinOp:
		return "binop " + st.Dst + " ?"
	default:
		// Unreachable while SolverReads admits everything else; fail
		// closed (distinct per-statement text) if that ever changes.
		return "opaque " + appfile.StmtLine(s)
	}
}

// diffReference compares Compute's digests with the reference's, as
// hex, and describes the first difference ("" when they agree).
func diffReference(app *apk.App) string {
	got, want := Compute(app), computeReference(app)
	if g := hex.EncodeToString(got.Shape[:]); g != want.Shape {
		return fmt.Sprintf("Shape = %s, reference %s", g, want.Shape)
	}
	if len(got.Methods) != len(want.Methods) {
		return fmt.Sprintf("%d methods, reference %d", len(got.Methods), len(want.Methods))
	}
	names := make([]string, 0, len(want.Methods))
	for name := range want.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		w := want.Methods[name]
		g, ok := got.Methods[name]
		if !ok {
			return fmt.Sprintf("method %s missing", name)
		}
		if full := hex.EncodeToString(g.Full[:]); full != w.Full {
			return fmt.Sprintf("%s: Full = %s, reference %s", name, full, w.Full)
		}
		if skel := hex.EncodeToString(g.Skeleton[:]); skel != w.Skeleton {
			return fmt.Sprintf("%s: Skeleton = %s, reference %s", name, skel, w.Skeleton)
		}
	}
	return ""
}

// planReference is PlanEdit over reference digests.
func planReference(base, next *refFingerprint) Plan {
	if base.Shape != next.Shape {
		return Plan{Reason: "shape"}
	}
	var changed, visible []string
	for name, nfp := range next.Methods {
		bfp, ok := base.Methods[name]
		if !ok {
			return Plan{Reason: "shape"}
		}
		if bfp.Full == nfp.Full {
			continue
		}
		changed = append(changed, name)
		if bfp.Skeleton != nfp.Skeleton {
			visible = append(visible, name)
		}
	}
	sort.Strings(changed)
	sort.Strings(visible)
	return Plan{OK: true, Changed: changed, Visible: visible}
}
