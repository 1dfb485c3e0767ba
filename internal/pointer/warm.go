package pointer

import (
	"fmt"
	"sort"

	"sierra/internal/ir"
	"sierra/internal/obs"
)

// Warm is a live handle on a solved delta analyzer, kept after the
// initial fixpoint so a skeleton-visible edit can be re-solved
// incrementally instead of from scratch. ReSolve retracts the changed
// methods' statement constraints (their per-position layout is rebuilt,
// their dense slots are orphaned and their event sites dead-marked),
// re-seeds fresh all-dirty slots from the patched bodies, and re-drains
// the difference-propagation worklist from that frontier.
//
// The handle does not make retraction sound in general — removing a
// constraint from a monotone solver cannot shrink already-derived
// facts. It is sound, and byte-for-byte equal to a cold solve, exactly
// when the caller's planner proves the edit could not shrink or grow
// any already-solved key (see internal/incremental's stage planner).
// ReSolve verifies the "could not grow" half at runtime: it snapshots
// every points-to set's growth version before re-solving and fails if
// any pre-existing key grew, any new method instance or entry appeared,
// or the fixpoint did not converge. On failure the handle — and the
// Result it wraps — must be discarded (fail closed to a cold run); the
// partially re-propagated state is not rolled back.
//
// A Warm handle is not safe for concurrent use.
type Warm struct {
	a     *analyzer
	spent bool // a failed ReSolve leaves the state unusable
}

// AnalyzeWarm is Analyze, but additionally returns a Warm re-solve
// handle when the fixpoint completed (nil when it was interrupted).
// Callers that never re-solve should use Analyze.
func AnalyzeWarm(cfg Config) (*Result, *Warm) {
	a := newAnalyzer(cfg)
	a.run()
	if a.res.Interrupted {
		return a.res, nil
	}
	return a.res, &Warm{a: a}
}

// Result returns the result the handle re-solves in place.
func (w *Warm) Result() *Result { return w.a.res }

// versionSnap records the growth version of every set materialized
// before a warm re-solve, in table order; comparing after the re-drain
// detects any growth of already-solved sets (sets materialized by the
// re-drain are fine — they belong to the edit). -1 marks a local no
// transfer had materialized.
type versionSnap struct {
	vars   [][]int64
	fields []uint32
	stats  []int64
}

func snapshotVersions(r *Result) versionSnap {
	s := versionSnap{
		vars:   make([][]int64, len(r.insts)),
		fields: make([]uint32, len(r.fsets)),
		stats:  make([]int64, len(r.ssets)),
	}
	for i, inst := range r.insts {
		s.vars[i] = make([]int64, len(inst.vars))
		for slot, set := range inst.vars {
			s.vars[i][slot] = snapVersion(set)
		}
	}
	for i, f := range r.fsets {
		s.fields[i] = f.set.version()
	}
	for i, st := range r.ssets {
		s.stats[i] = snapVersion(st.set)
	}
	return s
}

func snapVersion(s ObjSet) int64 {
	if s.d == nil {
		return -1
	}
	return int64(s.version())
}

func (s versionSnap) verify(r *Result) error {
	for i, vers := range s.vars {
		inst := r.insts[i]
		for slot, ver := range vers {
			if ver >= 0 && int64(inst.vars[slot].version()) != ver {
				return fmt.Errorf("pointer: warm re-solve grew var set %s.%s", inst.info.qname, inst.info.names[slot])
			}
		}
	}
	for i, ver := range s.fields {
		if r.fsets[i].set.version() != ver {
			return fmt.Errorf("pointer: warm re-solve grew field set %s", r.fieldName(r.fsets[i].field))
		}
	}
	for i, ver := range s.stats {
		if ver >= 0 && int64(r.ssets[i].set.version()) != ver {
			return fmt.Errorf("pointer: warm re-solve grew static set %s", r.ssets[i].key)
		}
	}
	return nil
}

// ReSolve incrementally re-solves after the given methods' bodies were
// patched in place (same *ir.Method identities, new block contents).
// On success the wrapped Result reflects the patched program with every
// pre-existing key byte-identical to a cold solve of it. On error the
// baseline state is unusable and the caller must fall back to a cold
// run. tr, when non-nil, receives pointer.retracted_keys and
// pointer.resolve_passes.
func (w *Warm) ReSolve(changed []*ir.Method, tr *obs.Trace) error {
	if w == nil || w.a == nil {
		return fmt.Errorf("pointer: no warm delta state")
	}
	if w.spent {
		return fmt.Errorf("pointer: warm handle spent by an earlier failed re-solve")
	}
	a := w.a
	d := a.d
	if a.res.Interrupted {
		return fmt.Errorf("pointer: warm baseline is interrupted")
	}

	snap := snapshotVersions(a.res)
	nInst, nEntries := len(a.res.insts), len(a.res.entries)

	// Re-lay out each changed body (its per-position operands, call and
	// event sites; slots only grow, so every existing local keeps its
	// set). Calls may not move: edges are recorded per call site.
	for _, m := range changed {
		mi := a.infos[m]
		if mi == nil {
			continue // never reached: nothing to retract
		}
		old := mi.calls
		a.layout(m, mi)
		if len(old) != len(mi.calls) {
			w.spent = true
			return fmt.Errorf("pointer: warm re-solve changed %s's call count (%d -> %d)", mi.qname, len(old), len(mi.calls))
		}
		for i := range old {
			if old[i].pos != mi.calls[i].pos {
				w.spent = true
				return fmt.Errorf("pointer: warm re-solve moved call %v of %s", old[i].pos, mi.qname)
			}
		}
	}

	// Dead-mark the affected instances' event sites before re-slotting:
	// stale consumer lists can re-dirty the old ids forever.
	isAffected := make(map[Inst]bool, 8)
	var affected []Inst
	for _, m := range changed {
		for _, id := range a.res.byMethod[m] {
			if !isAffected[id] {
				isAffected[id] = true
				affected = append(affected, id)
			}
		}
	}
	sort.Slice(affected, func(i, j int) bool { return affected[i] < affected[j] })
	for eid := range d.evSites {
		if isAffected[d.evSites[eid].inst] {
			d.evSites[eid].dead = true
		}
	}
	retracted := 0
	for _, id := range affected {
		retracted += d.instLen[id]
		d.slotInstance(a, id)
	}

	// The re-drain is uncancellable: a mid-drain cancellation would
	// leave the baseline half-propagated with no way to mark it
	// Interrupted safely.
	a.cfg.Ctx = nil
	a.runDelta()

	if tr != nil {
		tr.Count("pointer.retracted_keys", int64(retracted))
		tr.Count("pointer.resolve_passes", int64(a.res.passes))
	}
	if a.res.Interrupted {
		w.spent = true
		return fmt.Errorf("pointer: warm re-solve interrupted")
	}
	if d.changed {
		w.spent = true
		return fmt.Errorf("pointer: warm re-solve hit the pass bound before converging")
	}
	if len(a.res.insts) != nInst || len(a.res.entries) != nEntries {
		w.spent = true
		return fmt.Errorf("pointer: warm re-solve discovered new instances (%d -> %d) or entries (%d -> %d)",
			nInst, len(a.res.insts), nEntries, len(a.res.entries))
	}
	if err := snap.verify(a.res); err != nil {
		w.spent = true
		return err
	}
	return nil
}
