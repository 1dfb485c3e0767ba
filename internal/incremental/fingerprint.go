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

// MethodFP is one method's pair of body digests.
type MethodFP struct {
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

// Fingerprint is an app's incremental identity: a digest of everything
// outside method bodies plus per-method body digests.
type Fingerprint struct {
	// Shape digests the manifest, layouts (views and XML callbacks),
	// and every class/field/method declaration — all structure the
	// harness generator and the analyses key on besides bodies.
	Shape string
	// Methods maps ir qualified names ("Class#method") to body digests
	// for every non-framework method.
	Methods map[string]MethodFP
}

// Compute fingerprints an app. Call it on the freshly parsed app,
// before analysis: harness generation extends the program with
// synthetic classes that must not leak into the fingerprint (the same
// rule appfile.Bytes follows for cache digests).
func Compute(app *apk.App) *Fingerprint {
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
		hashView(shape, n, app.Layouts[n].Root, -1)
	}

	fp := &Fingerprint{Methods: map[string]MethodFP{}}
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
			fp.Methods[m.QualifiedName()] = methodFP(m)
		}
	}
	fp.Shape = hex.EncodeToString(shape.Sum(nil))
	return fp
}

func hashView(h hash.Hash, layout string, v *apk.View, parent int) {
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
		hashView(h, layout, c, v.ID)
	}
}

func methodFP(m *ir.Method) MethodFP {
	// Hot path: one buffered pass per digest, no fmt. Full and Skeleton
	// share every line except masked statements, so the buffers diverge
	// only there.
	var fullBuf, skelBuf []byte
	for bi, b := range m.Blocks {
		header := appendBlockHeader(nil, bi, b.Succs)
		fullBuf = append(fullBuf, header...)
		skelBuf = append(skelBuf, header...)
		for _, s := range b.Stmts {
			canon := appfile.StmtLine(s)
			fullBuf = append(append(fullBuf, canon...), '\n')
			if pointer.SolverReads(s) {
				skelBuf = append(append(skelBuf, canon...), '\n')
			} else {
				skelBuf = append(append(skelBuf, skeletonLine(s)...), '\n')
			}
		}
	}
	full, skel := sha256.Sum256(fullBuf), sha256.Sum256(skelBuf)
	return MethodFP{
		Full:     hex.EncodeToString(full[:]),
		Skeleton: hex.EncodeToString(skel[:]),
	}
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

// skeletonLine masks the operand fields of the statements the fixpoint
// stages never read. BinOp keeps its destination (cheap, and keeps the
// mask conservative even though no solver stage reads BinOp defs
// either); If keeps nothing — its control-flow effect lives in the
// block successor lines.
func skeletonLine(s ir.Stmt) string {
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
