package incremental

import (
	"fmt"
	"sort"
	"time"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/report"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// This file is the tier-2 incremental path: partial stage reuse for
// skeleton-VISIBLE edits. Where Apply (tier 1) reuses every
// pre-refutation artifact outright — sound because skeleton-equal edits
// are invisible to the fixpoint stages — ApplyStages absorbs edits the
// fixpoint can see, by re-solving only what the edit can reach:
//
//   1. the changed methods' pointer constraints are retracted and
//      re-seeded into the warm delta solver (pointer.Warm.ReSolve),
//      which re-drains from the dirty frontier and verifies at runtime
//      that no pre-existing fact grew;
//   2. the SHBG rows owned by actions whose callee closure reaches a
//      changed method are re-derived and compared against the recorded
//      base-edge sequence (shbg.Rebuild), reusing the closed graph when
//      they match;
//   3. racy pairs are regenerated (cheap) and diffed by canonical key:
//      retained pairs that cannot observe a changed body splice their
//      baseline verdicts, added or touched pairs are re-refuted.
//
// The report contract is the same as tier 1: byte-identical to a cold
// run of the new revision, or a fail-closed fallback. The static edit
// gate below (stageGate) admits only edits for which cold-equality is
// provable — inserted statements must be dataflow sinks (fresh
// destinations, so nothing flows into facts the baseline already
// derived, and in particular the action-discovery order that bakes
// action ids into pointer contexts cannot shift), and removed
// statements must be provably inert at the baseline fixpoint (empty
// points-to sources). What the gate cannot see, the runtime
// verification catches: any growth of a pre-existing points-to set, any
// new method instance, entry, or action, or any drift in the re-derived
// SHBG base edges poisons the baseline and forces a cold re-parse.

// StageStats describes one ApplyStages outcome.
type StageStats struct {
	// Plan is the stage planner's decision (Plan.OK false on fallback).
	Plan Plan
	// PairsTotal is the revision's racy-pair count (the new table).
	PairsTotal int
	// PairsRerefuted counts pairs whose verdicts were recomputed:
	// added pairs plus retained pairs touching a changed method.
	PairsRerefuted int
	// PairsSpliced counts retained pairs that reused their baseline
	// verdict unchanged.
	PairsSpliced int
	// PairsAdded counts pairs with no baseline counterpart.
	PairsAdded int
	// PairsRemoved counts baseline pairs with no successor.
	PairsRemoved int
	// ReusedPTA and ReusedSHBG record which stages were patched rather
	// than recomputed (both true on success by construction).
	ReusedPTA  bool
	ReusedSHBG bool
}

// PlanStages decides whether next is a candidate for partial stage
// reuse against base. Unlike PlanReuse it does not require changed
// methods to be skeleton-equal — skeleton drift is exactly the tier-2
// window — but the shape (declarations, manifest, layouts, block
// structure digests live in the method FPs) must still match, which
// pins the class/method/harness sets. Whether each changed body is
// actually admissible is decided per method by the edit gate, which
// needs the parsed bodies and the baseline points-to result.
func PlanStages(base, next *Fingerprint) Plan {
	if base.Shape != next.Shape {
		return Plan{Reason: "shape"}
	}
	var changed []string
	for name, nfp := range next.Methods {
		bfp, ok := base.Methods[name]
		if !ok {
			return Plan{Reason: "shape"} // equal shapes make this impossible
		}
		if bfp.Full != nfp.Full {
			changed = append(changed, name)
		}
	}
	sort.Strings(changed)
	return Plan{OK: true, Changed: changed}
}

// maskedLine is the per-statement comparison the gate aligns bodies
// with: statements the fixpoint stages read compare by their full
// canonical line, If/BinOp by their skeleton mask (their operands are
// refutation-only). Return is solver-read, so a changed return value
// never masks to equal.
func maskedLine(s ir.Stmt) string {
	if pointer.SolverReads(s) {
		return appfile.StmtLine(s)
	}
	return skeletonLine(s)
}

// terminator returns the block's trailing If/Return, or nil.
func terminator(stmts []ir.Stmt) ir.Stmt {
	if len(stmts) == 0 {
		return nil
	}
	switch last := stmts[len(stmts)-1]; last.(type) {
	case *ir.If, *ir.Return:
		return last
	}
	return nil
}

// collectVars gathers every variable name the method's baseline body
// mentions (plus parameters and the receiver) — the set an inserted
// statement's destination must avoid to be a dataflow sink.
func collectVars(m *ir.Method) map[string]bool {
	vars := map[string]bool{"this": true}
	for _, p := range m.Params {
		vars[p] = true
	}
	add := func(names ...string) {
		for _, n := range names {
			if n != "" {
				vars[n] = true
			}
		}
	}
	for _, b := range m.Blocks {
		for _, s := range b.Stmts {
			switch st := s.(type) {
			case *ir.New:
				add(st.Dst)
			case *ir.Const:
				add(st.Dst)
			case *ir.Move:
				add(st.Dst, st.Src)
			case *ir.Load:
				add(st.Dst, st.Obj)
			case *ir.Store:
				add(st.Obj, st.Src)
			case *ir.StaticLoad:
				add(st.Dst)
			case *ir.StaticStore:
				add(st.Src)
			case *ir.BinOp:
				add(st.Dst, st.A, st.B)
			case *ir.Invoke:
				add(st.Dst, st.Recv)
				add(st.Args...)
			case *ir.If:
				add(st.A)
				if st.B.IsVar {
					add(st.B.Var)
				}
			case *ir.Return:
				add(st.Src)
			}
		}
	}
	return vars
}

// insertOK decides whether one inserted statement is a provable
// dataflow sink. The whitelist is deliberately narrow:
//
//   - New/Const/Move/Load/BinOp with a destination absent from the
//     baseline body (and not a parameter) write only fresh facts; reads
//     of old variables are fine — flow out of old keys into new keys
//     cannot change old keys. Later-inserted statements may read
//     earlier-inserted destinations.
//   - Store writes obj.field for objects the base variable already
//     points to; if that field key already holds facts consumed by old
//     loads, the re-drain grows a pre-existing set and the runtime
//     verification falls back — so admitting it here is safe, just not
//     always free. The "what" field is declined outright: message-what
//     inference reads stores structurally, not through the fixpoint.
//   - Invoke (new call/dispatch/event edges shift action discovery
//     order), If/Return (control flow), and statics (global keys with
//     program-wide consumers) are declined.
func insertOK(s ir.Stmt, oldVars map[string]bool, inserted map[string]bool) error {
	freshDst := func(dst string) error {
		if dst == "" {
			return nil
		}
		if oldVars[dst] && !inserted[dst] {
			return fmt.Errorf("inserted def of existing var %q", dst)
		}
		inserted[dst] = true
		return nil
	}
	switch st := s.(type) {
	case *ir.New:
		return freshDst(st.Dst)
	case *ir.Const:
		return freshDst(st.Dst)
	case *ir.Move:
		return freshDst(st.Dst)
	case *ir.Load:
		return freshDst(st.Dst)
	case *ir.BinOp:
		return freshDst(st.Dst)
	case *ir.Store:
		if st.Field == "what" {
			return fmt.Errorf("inserted store to message field %q", st.Field)
		}
		return nil
	default:
		return fmt.Errorf("inserted %T not a provable dataflow sink", s)
	}
}

// removeOK decides whether one removed statement was provably inert at
// the baseline fixpoint — it derived nothing, so retracting it cannot
// require any fact to shrink (the half the runtime verification cannot
// see: version snapshots detect growth, not absence of shrinkage).
// Emptiness is checked against the union of the method's contexts.
func removeOK(s ir.Stmt, m *ir.Method, pta *pointer.Result) error {
	empty := func(v string) bool { return pta.PointsToAll(m, v).Len() == 0 }
	switch st := s.(type) {
	case *ir.BinOp:
		return nil // never solver-read
	case *ir.Load:
		if !empty(st.Obj) {
			return fmt.Errorf("removed load %s.%s has live base", st.Obj, st.Field)
		}
		return nil
	case *ir.Store:
		if st.Field == "what" {
			return fmt.Errorf("removed store to message field %q", st.Field)
		}
		if !empty(st.Obj) && !empty(st.Src) {
			return fmt.Errorf("removed store %s.%s has live base and source", st.Obj, st.Field)
		}
		return nil
	case *ir.Move:
		if !empty(st.Src) {
			return fmt.Errorf("removed move %s = %s has live source", st.Dst, st.Src)
		}
		return nil
	default:
		// Const feeds message-what inference, New owns an allocation
		// site retained facts may name, Invoke/If/Return shape the call
		// graph and CFG, statics have global consumers.
		return fmt.Errorf("removed %T not provably inert", s)
	}
}

// stageGate validates one changed method against the stage-reuse
// whitelist. Per block (block count and successor equality are
// re-checked by ReplaceBodyFlex; checked here too so declines stay
// clean, before any mutation):
//
//   - the trailing terminator (If/Return) must be present on both
//     sides or neither, and masked-equal (If operands free, Return
//     exact);
//   - the remaining statements must agree positionally under
//     maskedLine for a common prefix, with the leftover suffix either
//     all-inserted (donor longer: each insertOK) or all-removed
//     (baseline longer: each removeOK). A suffix on both sides is a
//     rewrite the gate cannot reason about — declined.
func stageGate(old, donor *ir.Method, pta *pointer.Result) error {
	if len(old.Blocks) != len(donor.Blocks) {
		return fmt.Errorf("block count %d -> %d", len(old.Blocks), len(donor.Blocks))
	}
	oldVars := collectVars(old)
	inserted := map[string]bool{}
	for bi := range old.Blocks {
		ob, nb := old.Blocks[bi], donor.Blocks[bi]
		if len(ob.Succs) != len(nb.Succs) {
			return fmt.Errorf("block %d successor count", bi)
		}
		for i := range ob.Succs {
			if ob.Succs[i] != nb.Succs[i] {
				return fmt.Errorf("block %d successors", bi)
			}
		}
		os, ns := ob.Stmts, nb.Stmts
		ot, nt := terminator(os), terminator(ns)
		if (ot == nil) != (nt == nil) {
			return fmt.Errorf("block %d terminator added or removed", bi)
		}
		if ot != nil {
			if maskedLine(ot) != maskedLine(nt) {
				return fmt.Errorf("block %d terminator rewritten", bi)
			}
			os, ns = os[:len(os)-1], ns[:len(ns)-1]
		}
		p := 0
		for p < len(os) && p < len(ns) && maskedLine(os[p]) == maskedLine(ns[p]) {
			p++
		}
		switch {
		case p == len(os) && p == len(ns):
			// Body-only edit (If/BinOp operands) — nothing to prove.
		case p == len(os):
			for _, s := range ns[p:] {
				if err := insertOK(s, oldVars, inserted); err != nil {
					return fmt.Errorf("block %d: %w", bi, err)
				}
			}
		case p == len(ns):
			for _, s := range os[p:] {
				if err := removeOK(s, old, pta); err != nil {
					return fmt.Errorf("block %d: %w", bi, err)
				}
			}
		default:
			return fmt.Errorf("block %d rewritten at statement %d", bi, p)
		}
	}
	return nil
}

// ApplyStages absorbs a skeleton-visible revision into the baseline by
// partial stage reuse (see the file comment for the protocol). It
// requires a warm baseline (Baseline.Warm non-nil — produced under
// core.Options.KeepPTAWarm) and the same refutation and SHBG configs
// the baseline ran with.
//
// Like Apply it returns (stats, false) without mutating anything when
// the planner or the edit gate declines — the caller falls back to a
// cold run and the baseline stays valid. Once mutation starts, any
// failure (patch error, re-solve verification, action drift, SHBG base
// drift, re-refutation interrupted by refCfg.Ctx) marks the baseline
// Poisoned; the caller must drop it and run cold. The caller must hold
// b.Mu.
func (b *Baseline) ApplyStages(next *apk.App, nextFP *Fingerprint, nextDigest string, refCfg symexec.Config, shbgOpts shbg.Options, tr *obs.Trace) (StageStats, bool) {
	st := StageStats{PairsTotal: len(b.Res.RacyPairs)}
	decline := func(reason string) (StageStats, bool) {
		st.Plan = Plan{Reason: reason, Changed: st.Plan.Changed}
		tr.Count("incremental.stage_fallbacks", 1)
		return st, false
	}
	if !b.CanApply() {
		return decline("baseline-partial")
	}
	if b.Warm == nil {
		return decline("baseline-cold")
	}
	st.Plan = PlanStages(b.FP, nextFP)
	if !st.Plan.OK {
		return decline(st.Plan.Reason)
	}

	// Gate every edit before touching anything: declines here are clean.
	type edit struct {
		old, donor *ir.Method
	}
	edits := make([]edit, 0, len(st.Plan.Changed))
	for _, qn := range st.Plan.Changed {
		old, donor, err := b.resolveEdit(next, qn)
		if err == nil {
			err = stageGate(old, donor, b.Res.PTA)
		}
		if err != nil {
			return decline("gate:" + qn + ": " + err.Error())
		}
		edits = append(edits, edit{old, donor})
	}

	t0 := time.Now()
	span := tr.Start("incremental.stage_apply")
	defer span.End()
	poison := func(reason string) (StageStats, bool) {
		b.Poisoned = true
		st.Plan = Plan{Reason: reason, Changed: st.Plan.Changed}
		tr.Count("incremental.stage_fallbacks", 1)
		return st, false
	}

	// Mutation starts: patch bodies in place, renumber fresh allocation
	// sites, then re-solve the warm pointer state from the dirty
	// frontier.
	nActions := b.Res.Registry.NumActions()
	changedSet := make(map[*ir.Method]bool, len(edits))
	changed := make([]*ir.Method, 0, len(edits))
	for _, e := range edits {
		if err := e.old.ReplaceBodyFlex(e.donor); err != nil {
			return poison("patch:" + err.Error())
		}
		changedSet[e.old] = true
		changed = append(changed, e.old)
	}
	b.App.Program.Finalize() // number inserted allocation sites

	if err := b.Warm.ReSolve(changed, tr); err != nil {
		return poison("resolve:" + err.Error())
	}
	if b.Res.Registry.NumActions() != nActions {
		return poison("actions-drift")
	}
	st.ReusedPTA = true
	tr.Count("incremental.stage_reuse_pta", 1)

	// SHBG: re-derive only the rows owned by actions that can reach a
	// changed method, and reuse the closed graph iff they match the
	// recorded base edges.
	touched := b.touchedActions(changedSet)
	dirty := make(map[int]bool)
	for id, hit := range touched {
		if hit {
			dirty[id] = true
		}
	}
	g, ok := shbg.Rebuild(b.Res.Graph, b.Res.Registry, b.Res.PTA, shbgOpts, dirty, tr)
	if !ok {
		return poison("shbg-drift")
	}
	b.Res.Graph = g
	st.ReusedSHBG = true
	tr.Count("incremental.stage_reuse_shbg", 1)

	// Pairs: re-collect only the dirty actions' accesses and recompute
	// only the combinations touching them (everything else splices from
	// the baseline — see race.CollectAccessesDelta/RacyPairsDelta),
	// then diff against the baseline table by canonical key. Retained
	// pairs that cannot observe a changed body splice their baseline
	// verdicts; the rest re-refute. Only fields stored by a patched body
	// can have gained field points-to entries (the re-solve gate rejects
	// every other growth route), so only those spliced accesses need
	// their IsRef flag refreshed.
	storedFields := map[string]bool{}
	for m := range changedSet {
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				switch stt := s.(type) {
				case *ir.Store:
					storedFields[stt.Field] = true
				case *ir.StaticStore:
					storedFields[stt.Field] = true
				}
			}
		}
	}
	accesses := race.CollectAccessesDelta(b.Res.Registry, b.Res.PTA, b.Res.Accesses, changedSet, storedFields, tr)
	pairs := race.RacyPairsDelta(b.Res.Registry, b.Res.Graph, accesses, b.Res.RacyPairs, changedSet, tr)
	match, removed := race.MatchPairs(b.Res.RacyPairs, pairs)
	st.PairsRemoved = removed
	st.PairsTotal = len(pairs)

	verdicts := make([]symexec.Verdict, len(pairs))
	var redo []int
	for i, p := range pairs {
		if match[i] < 0 {
			st.PairsAdded++
		}
		if match[i] >= 0 && !touched[p.A.Action] && !touched[p.B.Action] {
			verdicts[i] = b.Res.AllVerdicts[match[i]]
			st.PairsSpliced++
			continue
		}
		redo = append(redo, i)
	}
	if !b.rerefute(redo, pairs, verdicts, refCfg) {
		return poison("refute-interrupted")
	}
	st.PairsRerefuted = len(redo)

	var survivors = pairs[:0:0]
	var sverdicts []symexec.Verdict
	for i, v := range verdicts {
		if v.TruePositive {
			survivors = append(survivors, pairs[i])
			sverdicts = append(sverdicts, v)
		}
	}
	b.Res.Accesses = accesses
	b.Res.RacyPairs = pairs
	b.Res.AllVerdicts = verdicts
	b.Res.Verdicts = sverdicts
	b.Res.Reports = report.Rank(b.App.Program, survivors, sverdicts)
	b.Digest = nextDigest
	b.FP = nextFP

	tr.Count("incremental.stage_applies", 1)
	tr.Count("incremental.methods_changed", int64(len(st.Plan.Changed)))
	tr.Count("incremental.pairs_rerefuted", int64(st.PairsRerefuted))
	tr.Count("incremental.pairs_spliced", int64(st.PairsSpliced))
	tr.Count("incremental.pairs_added", int64(st.PairsAdded))
	tr.Count("incremental.pairs_removed", int64(st.PairsRemoved))
	tr.Count("race.pairs_total", int64(st.PairsTotal))
	tr.Observe("incremental.stage_apply_ms", float64(time.Since(t0))/1e6)
	return st, true
}
