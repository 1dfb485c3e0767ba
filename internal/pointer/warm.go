package pointer

import (
	"fmt"

	"sierra/internal/ir"
	"sierra/internal/obs"
)

// Warm is a live handle on a solved delta analyzer, kept after the
// initial fixpoint so a skeleton-visible edit can be re-solved
// incrementally instead of from scratch. ReSolve retracts the changed
// methods' statement constraints (their dense slots are orphaned and
// their event sites dead-marked), re-seeds fresh all-dirty slots from
// the patched bodies, and re-drains the difference-propagation worklist
// from that frontier.
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
// A Warm handle is not safe for concurrent use and is only produced by
// the delta solver (AnalyzeWarm returns nil for the exhaustive solver).
type Warm struct {
	a     *analyzer
	spent bool // a failed ReSolve leaves the state unusable
}

// AnalyzeWarm is Analyze, but additionally returns a Warm re-solve
// handle when the configuration supports one (delta solver, completed
// fixpoint). Callers that never re-solve should use Analyze.
func AnalyzeWarm(cfg Config) (*Result, *Warm) {
	a := newAnalyzer(cfg)
	a.run()
	if a.d == nil || a.res.Interrupted {
		return a.res, nil
	}
	return a.res, &Warm{a: a}
}

// Result returns the result the handle re-solves in place.
func (w *Warm) Result() *Result { return w.a.res }

// versionSnap records every points-to key's growth version before a
// warm re-solve; comparing after the re-drain detects any growth of
// already-solved keys (new keys are fine — they belong to the edit).
type versionSnap struct {
	pts  map[VarKey]uint32
	fpts map[FieldKey]uint32
	spts map[string]uint32
}

func snapshotVersions(r *Result) versionSnap {
	s := versionSnap{
		pts:  make(map[VarKey]uint32, len(r.pts)),
		fpts: make(map[FieldKey]uint32, len(r.fpts)),
		spts: make(map[string]uint32, len(r.spts)),
	}
	for k, v := range r.pts {
		s.pts[k] = v.version()
	}
	for k, v := range r.fpts {
		s.fpts[k] = v.version()
	}
	for k, v := range r.spts {
		s.spts[k] = v.version()
	}
	return s
}

func (s versionSnap) verify(r *Result) error {
	for k, ver := range s.pts {
		if r.pts[k].version() != ver {
			return fmt.Errorf("pointer: warm re-solve grew var set %s.%s", k.M.QualifiedName(), k.Var)
		}
	}
	for k, ver := range s.fpts {
		if r.fpts[k].version() != ver {
			return fmt.Errorf("pointer: warm re-solve grew field set %s", k.Field)
		}
	}
	for k, ver := range s.spts {
		if r.spts[k].version() != ver {
			return fmt.Errorf("pointer: warm re-solve grew static set %s", k)
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
	if w == nil || w.a == nil || w.a.d == nil {
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

	chSet := make(map[*ir.Method]bool, len(changed))
	for _, m := range changed {
		chSet[m] = true
		// Invalidate the event-site cache: the body is already patched,
		// so the next methodEvents read sees the new stmts.
		delete(d.eventsOf, m)
	}

	snap := snapshotVersions(a.res)
	nInst, nEntries := len(a.order), len(a.res.entryKeys)

	// Dead-mark the affected instances' event sites before re-slotting:
	// stale consumer lists can re-dirty the old ids forever.
	affected := make([]int, 0, 8)
	isAffected := make(map[int]bool, 8)
	for i, mk := range a.order {
		if chSet[mk.M] {
			affected = append(affected, i)
			isAffected[i] = true
		}
	}
	for eid := range d.evSites {
		if isAffected[d.evSites[eid].inst] {
			d.evSites[eid].dead = true
		}
	}
	retracted := 0
	for _, i := range affected {
		retracted += d.instLen[i]
		d.slotInstance(a, i, a.order[i])
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
	if len(a.order) != nInst || len(a.res.entryKeys) != nEntries {
		w.spent = true
		return fmt.Errorf("pointer: warm re-solve discovered new instances (%d -> %d) or entries (%d -> %d)",
			nInst, len(a.order), nEntries, len(a.res.entryKeys))
	}
	if err := snap.verify(a.res); err != nil {
		w.spent = true
		return err
	}
	return nil
}
