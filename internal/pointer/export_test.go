package pointer

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"sierra/internal/obs"
)

// UseReferenceSolver makes every analysis until the test ends solve
// with the exhaustive reference fixpoint (reference_test.go) — also the
// ones the actions and core pipelines start — and then restores the
// delta solver. Tests that call it must not run in parallel.
func UseReferenceSolver(tb testing.TB) {
	fixpoint = (*analyzer).runExhaustive
	tb.Cleanup(func() { fixpoint = (*analyzer).runDelta })
}

// DumpWarm renders a solved analysis canonically (see dumpResult), its
// copy edges in application order included, and appends every
// pointer.* counter and gauge that tr, when non-nil, received.
func DumpWarm(w *Warm, tr *obs.Trace) string {
	var b strings.Builder
	b.WriteString(dumpResult(w.a.res, w.a.sortedCopies))
	if tr == nil {
		return b.String()
	}
	snap := tr.Snapshot()
	var stats []string
	for k, v := range snap.Counters {
		if strings.HasPrefix(k, "pointer.") {
			stats = append(stats, fmt.Sprintf("counter %s %d", k, v))
		}
	}
	for k, v := range snap.Gauges {
		if strings.HasPrefix(k, "pointer.") {
			stats = append(stats, fmt.Sprintf("gauge %s %g", k, v))
		}
	}
	sort.Strings(stats)
	for _, s := range stats {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	return b.String()
}

// dumpResult renders a result canonically: the pass count, the
// instance discovery order, the entry order, the callee order at every
// call site, the given copy edges in order, every var, field and static
// set (sorted by rendered key), and the interner's object order. Two
// results dump equal text exactly when every observable the solver
// fixes — orders included — is equal.
func dumpResult(r *Result, copies []*copyEdge) string {
	var b strings.Builder
	fmt.Fprintf(&b, "passes %d interrupted %t\n", r.passes, r.Interrupted)
	for i := range r.insts {
		fmt.Fprintf(&b, "inst %d %s\n", i, r.Key(Inst(i)))
	}
	for i, id := range r.entries {
		fmt.Fprintf(&b, "entry %d %s\n", i, r.Key(id))
	}
	var sites, sets []string
	for i, inst := range r.insts {
		caller := r.Key(Inst(i))
		for ord, callees := range inst.calls {
			if len(callees) == 0 {
				continue
			}
			names := make([]string, len(callees))
			for j, c := range callees {
				names[j] = r.Key(c).String()
			}
			sites = append(sites, fmt.Sprintf("site %s %v -> %s", caller, inst.info.calls[ord].pos, strings.Join(names, " ")))
		}
		for slot, s := range inst.vars {
			if s.d != nil {
				sets = append(sets, "var "+r.localName(local{Inst(i), int32(slot)})+" = "+s.String())
			}
		}
	}
	sort.Strings(sites)
	for _, s := range sites {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	for i, e := range copies {
		srcs := make([]string, len(e.srcs))
		for j, s := range e.srcs {
			srcs[j] = s.key
		}
		fmt.Fprintf(&b, "copy %d %s <- %s\n", i, e.key, strings.Join(srcs, " "))
	}
	objs := r.in.snapshot()
	for _, f := range r.fsets {
		sets = append(sets, "field "+objs[f.obj].String()+"."+r.fieldName(f.field)+" = "+f.set.String())
	}
	for _, s := range r.ssets {
		if s.set.d != nil {
			sets = append(sets, "static "+s.key+" = "+s.set.String())
		}
	}
	sort.Strings(sets)
	for _, s := range sets {
		b.WriteString(s)
		b.WriteByte('\n')
	}
	for i, o := range objs {
		fmt.Fprintf(&b, "obj %d %d|%s|%d|%s\n", i, o.Site, o.Ctx, o.ViewID, o.Class)
	}
	return b.String()
}
