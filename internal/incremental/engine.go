package incremental

import (
	"fmt"
	"strings"
	"sync"

	"sierra/internal/apk"
	"sierra/internal/core"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// Baseline is one fully-analyzed app revision kept warm for incremental
// re-analysis. It owns the live analysis artifacts — program, registry,
// pointer result, SHBG, pairs, verdicts — which all key on *ir.Method
// identity, so a new revision is absorbed by patching bodies into this
// program (ir.Method.ReplaceBody), never by re-parsing into a new one.
type Baseline struct {
	// Mu serializes revisions against this baseline: ApplyStages
	// mutates the program and the result in place.
	Mu sync.Mutex
	// Name is the app name — the lineage key submissions match on.
	Name string
	// Digest is the content digest of the revision currently analyzed.
	Digest string
	// FP is the fingerprint of that revision.
	FP *Fingerprint
	// App owns the program the artifacts below point into.
	App *apk.App
	// Res is the full analysis result for Digest.
	Res *core.Result
	// Warm is the pointer solver's live re-solve handle (Res.PTAWarm,
	// hoisted here so pool/serve code needn't reach into the result).
	// Without it the baseline absorbs only revisions that need no stage
	// patch.
	Warm *pointer.Warm
	// Poisoned marks a baseline whose in-place patch failed midway; its
	// artifacts may be inconsistent and it must not be reused.
	Poisoned bool
}

// ApproxBytes estimates the baseline's resident footprint — the IR
// program plus the three big analysis artifacts (points-to result,
// closed SHBG, pair/verdict tables). The serve pool's byte budget
// evicts on this, not on entry count: one large app can outweigh
// twenty small ones.
func (b *Baseline) ApproxBytes() int64 {
	var n int64
	for _, c := range b.App.Program.Classes() {
		n += 256 // class header, field table
		for _, m := range c.Methods {
			n += 128
			for _, blk := range m.Blocks {
				n += 64 + int64(len(blk.Stmts))*96
			}
		}
	}
	if b.Res != nil {
		if b.Res.PTA != nil {
			n += b.Res.PTA.ApproxBytes()
		}
		if b.Res.Graph != nil {
			n += b.Res.Graph.ApproxBytes()
		}
		n += int64(len(b.Res.Accesses)) * 96
		n += int64(len(b.Res.RacyPairs)+len(b.Res.Reports)) * 160
		n += int64(len(b.Res.AllVerdicts)+len(b.Res.Verdicts)) * 48
	}
	return n
}

// Stats describes one apply outcome.
type Stats struct {
	// Plan is the planner's decision (Plan.OK false on a decline or a
	// poisoning, with Plan.Reason saying which).
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
}

// CanApply reports whether the baseline is a sound reuse source at all:
// complete (not interrupted, refutation ran over every pair) and not
// poisoned by a failed patch. Partial baselines are never reused — the
// spliced verdict array must cover exactly the pair set.
func (b *Baseline) CanApply() bool {
	return b != nil && !b.Poisoned && !b.Res.Interrupted &&
		len(b.Res.AllVerdicts) == len(b.Res.RacyPairs)
}

// ApplyStages absorbs the revision (next, nextFP, nextDigest) into the
// baseline incrementally. It patches the changed method bodies into the
// baseline program and decides, for the pre-refutation stages as a
// whole, between reuse and patch:
//
//   - when no changed method's skeleton changed (Plan.Visible empty),
//     the registry, pointer result, SHBG and pair table are reused as
//     they are, since no fixpoint stage reads what changed;
//   - otherwise each visible edit must pass the static edit gate, and
//     the stages are patched from the changed methods: the warm pointer
//     state re-solves (pointer.Warm.ReSolve), the SHBG rows of the
//     actions that reach a changed method are re-derived
//     (shbg.Rebuild), and the pair table is regenerated from the
//     changed accesses and diffed against the baseline's
//     (race.RacyPairsDelta, race.MatchPairs). Patching needs a warm
//     baseline (Warm non-nil, from core.Options.KeepPTAWarm).
//
// Either way it then re-refutes, with one CheckAll, the added pairs and
// the pairs whose action bodies (root methods plus their callee closure)
// include a changed method, splices every other verdict, and re-ranks.
// On success the baseline describes the new revision exactly as a cold
// full run would — byte-identical reports — and Stats says how much work
// was saved. b.Res.Ledger then times the apply by layer, as a cold run
// times itself: cgpa is the re-solve, shbg the row rebuild, pairs the
// pair delta and diff (all three zero when the stages are reused),
// refute the splice and re-refutation, rank the re-rank; harness and
// compare are zero. The body transplant stays outside it, as parsing
// does outside a cold run's.
//
// ApplyStages returns (stats, false) without mutating anything when
// admission declines (an unusable baseline, a refCfg.Ctx already done,
// the planner, or the edit gate); the caller then runs the full pipeline
// and replaces the baseline. Once mutation starts, any failure
// (patch error, re-solve verification, action drift, SHBG base drift,
// re-refutation interrupted by refCfg.Ctx) marks the baseline Poisoned;
// the caller must drop it and run cold. Each decline counts one
// incremental.fallbacks; a landing counts incremental.applies (stages
// reused) or incremental.stage_applies (stages patched).
//
// Verdict-splicing is sound because symexec refutes every pair from
// empty memos, so a verdict depends on nothing but its pair. refCfg and
// shbgOpts must match the baseline's refutation budgets and SHBG rule
// ablation; `sierra serve` pins one config for the daemon's lifetime.
// The caller must hold b.Mu.
func (b *Baseline) ApplyStages(next *apk.App, nextFP *Fingerprint, nextDigest string, refCfg symexec.Config, shbgOpts shbg.Options, tr *obs.Trace) (Stats, bool) {
	st := Stats{PairsTotal: len(b.Res.RacyPairs)}
	decline := func(reason string) (Stats, bool) {
		st.Plan.OK, st.Plan.Reason = false, reason
		tr.Count("incremental.fallbacks", 1)
		return st, false
	}

	// Admission: declines here leave the baseline untouched.
	if !b.CanApply() {
		return decline("baseline-partial")
	}
	if refCfg.Ctx != nil && refCfg.Ctx.Err() != nil {
		return decline("cancelled")
	}
	st.Plan = PlanEdit(b.FP, nextFP)
	if !st.Plan.OK {
		return decline(st.Plan.Reason)
	}
	patch := len(st.Plan.Visible) > 0
	if patch && b.Warm == nil {
		return decline("baseline-cold")
	}
	type edit struct {
		old, donor *ir.Method
	}
	edits := make([]edit, 0, len(st.Plan.Changed))
	for _, qn := range st.Plan.Changed {
		old, donor, err := b.resolveEdit(next, qn)
		if err == nil && patch {
			err = stageGate(old, donor, b.Res.PTA)
		}
		if err != nil {
			return decline("gate:" + qn + ": " + err.Error())
		}
		edits = append(edits, edit{old, donor})
	}

	span := tr.Start("incremental.apply")
	defer span.End()
	poison := func(reason string) (Stats, bool) {
		b.Poisoned = true
		return decline(reason)
	}

	// Mutation starts: transplant the bodies in place, then number the
	// allocation sites an edit inserted.
	changed := make([]*ir.Method, 0, len(edits))
	changedSet := make(map[*ir.Method]bool, len(edits))
	for _, e := range edits {
		if err := e.old.ReplaceBody(e.donor); err != nil {
			return poison("patch:" + err.Error())
		}
		changed = append(changed, e.old)
		changedSet[e.old] = true
	}
	b.App.Program.Finalize()

	// The pass has no context: a cancellation mid-apply poisons the
	// baseline (refute-interrupted) rather than marking it Interrupted.
	p := core.NewPass(nil, tr, b.Res)

	// Reuse or patch the pre-refutation stages. match maps each pair to
	// its baseline index (-1 for an added pair); nil means the pair
	// table is the baseline's own.
	accesses, pairs := b.Res.Accesses, b.Res.RacyPairs
	var match []int
	var touched map[int]bool
	if patch {
		nActions := b.Res.Registry.NumActions()
		var err error
		p.Step(core.CGPA, func() { err = b.Warm.ReSolve(changed, tr) })
		if err != nil {
			return poison("resolve:" + err.Error())
		}
		if b.Res.Registry.NumActions() != nActions {
			return poison("actions-drift")
		}
		// SHBG: re-derive only the rows owned by actions that can reach
		// a changed method, and reuse the closed graph iff they match
		// the recorded base edges.
		var g *shbg.Graph
		ok := false
		p.Step(core.SHBG, func() {
			touched = b.touchedActions(changedSet)
			g, ok = shbg.Rebuild(b.Res.Graph, b.Res.Registry, b.Res.PTA, shbgOpts, touched, tr)
		})
		if !ok {
			return poison("shbg-drift")
		}
		b.Res.Graph = g
		// Pairs: re-collect only the changed methods' accesses and
		// recompute only the combinations touching them (everything
		// else splices from the baseline — see
		// race.CollectAccessesDelta/RacyPairsDelta), then diff against
		// the baseline table by canonical key.
		p.Step(core.Pairs, func() {
			accesses = race.CollectAccessesDelta(b.Res.Registry, b.Res.PTA, b.Res.Accesses, changedSet, storedFields(changed), tr)
			pairs = race.RacyPairsDelta(b.Res.Registry, b.Res.Graph, accesses, b.Res.RacyPairs, changedSet, tr)
			match, st.PairsRemoved = race.MatchPairs(b.Res.RacyPairs, pairs)
		})
	}
	st.PairsTotal = len(pairs)

	// Re-refute exactly the added pairs and the pairs whose refutation
	// walks can observe a changed body: the walker explores an action's
	// root methods plus their inlined callees, so the callee closure
	// over the pointer result's call edges (depth-unbounded — a superset
	// of the walker's depth-bounded inlining) is a sound "touches
	// changed code" test. Every other verdict splices from the baseline.
	verdicts := make([]symexec.Verdict, len(pairs))
	interrupted := false
	p.Step(core.Refute, func() {
		if !patch {
			touched = b.touchedActions(changedSet)
		}
		var redo []int
		for i, pr := range pairs {
			j := i
			if match != nil {
				j = match[i]
			}
			if j < 0 {
				st.PairsAdded++
			} else if !touched[pr.A.Action] && !touched[pr.B.Action] {
				verdicts[i] = b.Res.AllVerdicts[j]
				st.PairsSpliced++
				continue
			}
			redo = append(redo, i)
		}
		sub := make([]race.Pair, len(redo))
		for k, i := range redo {
			sub[k] = pairs[i]
		}
		var got []symexec.Verdict
		got, interrupted = symexec.CheckAll(b.Res.Registry, b.Res.PTA, refCfg, sub)
		for k, v := range got {
			verdicts[redo[k]] = v
		}
		st.PairsRerefuted = len(redo)
	})
	if interrupted {
		return poison("refute-interrupted")
	}

	// Re-rank on the patched program (ranking reads guard fields from
	// the live bodies, exactly like a cold run on the new revision).
	b.Res.Accesses = accesses
	b.Res.RacyPairs = pairs
	b.Res.AllVerdicts = verdicts
	p.Step(core.Rank, b.Res.Rank)
	b.Digest = nextDigest
	b.FP = nextFP

	if patch {
		tr.Count("incremental.stage_applies", 1)
	} else {
		tr.Count("incremental.applies", 1)
	}
	tr.Count("incremental.methods_changed", int64(len(st.Plan.Changed)))
	tr.Count("incremental.pairs_rerefuted", int64(st.PairsRerefuted))
	tr.Count("incremental.pairs_spliced", int64(st.PairsSpliced))
	tr.Count("incremental.pairs_added", int64(st.PairsAdded))
	tr.Count("incremental.pairs_removed", int64(st.PairsRemoved))
	tr.Count("race.pairs_total", int64(st.PairsTotal))
	tr.Observe("incremental.apply_ms", float64(b.Res.Ledger.Total)/1e6)
	return st, true
}

// Apply is ApplyStages restricted to revisions that need no stage
// patch: when Plan.Visible is non-empty it declines with
// "skeleton:<method>", leaving the baseline untouched and counting
// nothing, since the caller goes on to ApplyStages rather than to a
// cold run. perfbench's serve-edit replay calls the two in turn to time
// each landing.
func (b *Baseline) Apply(next *apk.App, nextFP *Fingerprint, nextDigest string, cfg symexec.Config, tr *obs.Trace) (Stats, bool) {
	if b.CanApply() {
		if p := PlanEdit(b.FP, nextFP); p.OK && len(p.Visible) > 0 {
			p.OK, p.Reason = false, "skeleton:"+p.Visible[0]
			return Stats{Plan: p, PairsTotal: len(b.Res.RacyPairs)}, false
		}
	}
	return b.ApplyStages(next, nextFP, nextDigest, cfg, shbg.Options{}, tr)
}

// storedFields lists the fields the changed bodies store. Only those can
// have gained field points-to entries (the re-solve gate rejects every
// other growth route), so only spliced accesses to them need their
// IsRef flag refreshed.
func storedFields(changed []*ir.Method) map[string]bool {
	fields := map[string]bool{}
	for _, m := range changed {
		for _, blk := range m.Blocks {
			for _, s := range blk.Stmts {
				switch st := s.(type) {
				case *ir.Store:
					fields[st.Field] = true
				case *ir.StaticStore:
					fields[st.Field] = true
				}
			}
		}
	}
	return fields
}

// resolveEdit finds the baseline method and its donor body for one
// changed qualified name ("Class#method").
func (b *Baseline) resolveEdit(next *apk.App, qn string) (old, donor *ir.Method, err error) {
	cls, name, ok := strings.Cut(qn, "#")
	if !ok {
		return nil, nil, fmt.Errorf("incremental: bad method key %q", qn)
	}
	if c := b.App.Program.Class(cls); c != nil {
		old = c.Methods[name]
	}
	if c := next.Program.Class(cls); c != nil {
		donor = c.Methods[name]
	}
	if old == nil || donor == nil {
		return nil, nil, fmt.Errorf("incremental: method %s missing from %s revision", qn,
			map[bool]string{true: "baseline", false: "new"}[old == nil])
	}
	return old, donor, nil
}

// touchedActions returns the ids of the actions whose root methods, or
// any method reachable from them through the pointer result's call
// edges, are in changed — the dirty set shbg.Rebuild re-derives. A
// plain per-action BFS: quadratic at worst over methods, which is
// nothing at app scale, and trivially sound (a memo shared across a
// cyclic call graph would need care not to cache a provisional miss).
func (b *Baseline) touchedActions(changed map[*ir.Method]bool) map[int]bool {
	callees := b.Res.PTA.CalleeMethods()
	reg := b.Res.Registry
	touched := make(map[int]bool)
	for id := 0; id < reg.NumActions(); id++ {
		seen := map[*ir.Method]bool{}
		stack := append([]*ir.Method(nil), reg.Get(id).Roots...)
		hit := false
		for len(stack) > 0 && !hit {
			m := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if m == nil || seen[m] {
				continue
			}
			seen[m] = true
			if changed[m] {
				hit = true
				break
			}
			for _, blk := range m.Blocks {
				for si := range blk.Stmts {
					if _, isCall := blk.Stmts[si].(*ir.Invoke); isCall {
						stack = append(stack, callees(ir.Pos{Method: m, Block: blk.Index, Index: si})...)
					}
				}
			}
		}
		if hit {
			touched[id] = true
		}
	}
	return touched
}
