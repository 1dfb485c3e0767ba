// Package incremental implements fingerprint-driven incremental
// re-analysis: the machinery that lets `sierra serve` turn a one-method
// edit of an already-analyzed app into a re-refutation of a handful of
// racy pairs instead of a full pipeline run.
//
// One planner (PlanEdit) and one apply (Baseline.ApplyStages) make the
// decision. The soundness argument is structural. The fixpoint stages
// of the pipeline — pointer analysis, action discovery, SHBG
// construction, racy-pair generation — read method bodies only through
// the statement kinds pointer.SolverReads admits; branch conditions
// (If) and arithmetic (BinOp) operands are consumed exclusively by the
// backward symbolic walker and by report ranking, both of which always
// run against the current bodies. So a revision whose "shape"
// (manifest, layouts, class/field/method declarations, block structure)
// is unchanged and whose changed methods are all skeleton-equal (equal
// after masking If/BinOp operands) has, by construction, the same
// registry, points-to result, happens-before graph, and racy-pair set
// as its baseline — those artifacts are reused as they are. When some
// changed method's skeleton changed too (Plan.Visible), a static edit
// gate must prove each such edit a dataflow sink or inert, and the
// stages are patched from the changed methods under runtime
// verification. Either way only the pairs whose witness walks can see a
// changed body, plus any added pair, are re-refuted. Whenever any of
// that cannot be proven, the apply declines (or, once mutation started,
// poisons the baseline) and the caller falls back to a full run;
// reports are byte-identical either way.
package incremental

import (
	"cmp"
	"crypto/sha256"
	"slices"
	"strconv"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

// MethodFP is one method's pair of body digests (SHA-256).
type MethodFP struct {
	// Full digests every canonical statement line plus the block
	// structure — equal Full means the body is textually identical.
	Full [sha256.Size]byte
	// Skeleton digests the same lines with If and BinOp operands masked
	// (the statement fields no fixpoint stage reads; see
	// pointer.SolverReads). Equal Skeleton with unequal Full is the
	// incremental window: the body changed, but only in ways invisible
	// to everything before refutation. A body with no masked statement
	// has one text, so its Skeleton is its Full.
	Skeleton [sha256.Size]byte
}

// Fingerprint is an app's incremental identity: a digest of everything
// outside method bodies plus per-method body digests.
type Fingerprint struct {
	// Shape digests the manifest, layouts (views and XML callbacks),
	// and every class/field/method declaration — all structure the
	// harness generator and the analyses key on besides bodies.
	Shape [sha256.Size]byte
	// Methods maps ir qualified names ("Class#method") to body digests
	// for every non-framework method.
	Methods map[string]MethodFP
}

// Compute fingerprints an app. Call it on the freshly parsed app,
// before analysis: harness generation extends the program with
// synthetic classes that must not leak into the fingerprint (the same
// rule appfile.Bytes follows for cache digests).
//
// Serve runs it on every revision, so it is one pass over reused
// buffers: the shape text accumulates in one buffer hashed at the end,
// and each method body is rendered into a full-text buffer (and a
// skeleton buffer only when the body has a masked statement) that the
// next method overwrites. The texts are the lines the fmt verbs %s, %d,
// %t and %v would print, so the digests are those of the line-by-line
// rendering kept in fingerprint_reference_test.go.
func Compute(app *apk.App) *Fingerprint {
	var classes []*ir.Class
	methods := 0
	app.Program.EachClass(func(c *ir.Class) {
		if !c.Framework {
			classes = append(classes, c)
			methods += len(c.Methods)
		}
	})
	slices.SortFunc(classes, func(a, b *ir.Class) int { return cmp.Compare(a.Name, b.Name) })

	sh := make([]byte, 0, 4096)
	sh = appendLine(sh, "app ", app.Name)
	sh = appendLine(sh, "package ", app.Manifest.Package)
	sh = appendLine(sh, "installs ", app.Installs)
	sh = appendLine(sh, "main ", app.Manifest.MainActivity)
	for _, c := range app.Manifest.Activities {
		sh = appendLine(sh, "activity ", c.Class, " layout ", c.Layout)
	}
	for _, c := range app.Manifest.Services {
		sh = append(appendList(appendStrs(sh, "service ", c.Class, " "), c.IntentFilters), '\n')
	}
	for _, c := range app.Manifest.Receivers {
		sh = append(appendList(appendStrs(sh, "receiver ", c.Class, " "), c.IntentFilters), '\n')
	}
	layouts := make([]string, 0, len(app.Layouts))
	for n := range app.Layouts {
		layouts = append(layouts, n)
	}
	slices.Sort(layouts)
	for _, n := range layouts {
		sh = appendLine(sh, "layout ", n)
		sh = appendView(sh, n, app.Layouts[n].Root, -1)
	}

	fp := &Fingerprint{Methods: make(map[string]MethodFP, methods)}
	var sorted []*ir.Method
	var full, skel []byte
	for _, c := range classes {
		sh = appendStrs(sh, "class ", c.Name, " extends ", c.Super, " implements ")
		sh = strconv.AppendBool(append(appendList(sh, c.Interfaces), " library "...), c.Library)
		sh = append(sh, '\n')
		for _, f := range c.Fields {
			sh = appendLine(sh, "field ", c.Name, " ", f)
		}
		sorted = sorted[:0]
		for _, m := range c.Methods {
			sorted = append(sorted, m)
		}
		slices.SortFunc(sorted, func(a, b *ir.Method) int { return cmp.Compare(a.Name, b.Name) })
		for _, m := range sorted {
			sh = strconv.AppendBool(appendStrs(sh, "method ", c.Name, " ", m.Name, " static "), m.Static)
			sh = append(appendList(append(sh, " params "...), m.Params), '\n')
			var mfp MethodFP
			full, skel, mfp = methodFP(full[:0], skel[:0], m)
			fp.Methods[m.QualifiedName()] = mfp
		}
	}
	fp.Shape = sha256.Sum256(sh)
	return fp
}

// appendStrs appends each part in turn.
func appendStrs(b []byte, parts ...string) []byte {
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// appendLine appends the parts and a newline.
func appendLine(b []byte, parts ...string) []byte {
	return append(appendStrs(b, parts...), '\n')
}

// appendList renders xs as fmt's %v prints a []string: "[a b c]".
func appendList(b []byte, xs []string) []byte {
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, x...)
	}
	return append(b, ']')
}

// appendView renders a view subtree's lines: "view LAYOUT ID TYPE
// PARENT", then one "xmlcb LAYOUT ID KIND METHOD" per XML callback in
// kind order, then the children.
func appendView(b []byte, layout string, v *apk.View, parent int) []byte {
	if v == nil {
		return b
	}
	b = strconv.AppendInt(appendStrs(b, "view ", layout, " "), int64(v.ID), 10)
	b = strconv.AppendInt(appendStrs(b, " ", v.Type, " "), int64(parent), 10)
	b = append(b, '\n')
	kinds := make([]string, 0, len(v.XMLCallbacks))
	for k := range v.XMLCallbacks {
		kinds = append(kinds, k)
	}
	slices.Sort(kinds)
	for _, k := range kinds {
		b = strconv.AppendInt(appendStrs(b, "xmlcb ", layout, " "), int64(v.ID), 10)
		b = appendLine(b, " ", k, " ", v.XMLCallbacks[k])
	}
	for _, c := range v.Children {
		b = appendView(b, layout, c, v.ID)
	}
	return b
}

// methodFP digests one body, rendering it into full and skel (both
// empty on entry) and returning them for reuse. The full text is every
// block header and canonical statement line. The skeleton text is the
// same with each masked statement's line replaced: it is assembled only
// once a masked statement turns up, by copying the full text since the
// previous one, and a body with none is hashed once for both digests.
func methodFP(full, skel []byte, m *ir.Method) ([]byte, []byte, MethodFP) {
	copied, masked := 0, false
	for bi, b := range m.Blocks {
		full = appendBlockHeader(full, bi, b.Succs)
		for _, s := range b.Stmts {
			start := len(full)
			full = append(appfile.AppendStmt(full, s), '\n')
			if pointer.SolverReads(s) {
				continue
			}
			skel = append(appendSkeleton(append(skel, full[copied:start]...), s), '\n')
			copied, masked = len(full), true
		}
	}
	fp := MethodFP{Full: sha256.Sum256(full)}
	fp.Skeleton = fp.Full
	if masked {
		skel = append(skel, full[copied:]...)
		fp.Skeleton = sha256.Sum256(skel)
	}
	return full, skel, fp
}

// appendBlockHeader renders "block N succ [a b ...]\n" exactly as
// fmt.Sprintf("block %d succ %v\n", ...) would, without fmt.
func appendBlockHeader(dst []byte, bi int, succs []int) []byte {
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

// appendSkeleton appends the masked line of a statement the fixpoint
// stages never read. BinOp keeps its destination (cheap, and keeps the
// mask conservative even though no solver stage reads BinOp defs
// either); If keeps nothing — its control-flow effect lives in the
// block successor lines.
func appendSkeleton(b []byte, s ir.Stmt) []byte {
	switch st := s.(type) {
	case *ir.If:
		return append(b, "if ?"...)
	case *ir.BinOp:
		return append(append(append(b, "binop "...), st.Dst...), " ?"...)
	default:
		// Unreachable while SolverReads admits everything else; fail
		// closed (distinct per-statement text) if that ever changes.
		return appfile.AppendStmt(append(b, "opaque "...), s)
	}
}
