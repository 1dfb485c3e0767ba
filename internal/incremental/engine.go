package incremental

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"sierra/internal/apk"
	"sierra/internal/core"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/report"
	"sierra/internal/symexec"
)

// Baseline is one fully-analyzed app revision kept warm for incremental
// re-analysis. It owns the live analysis artifacts — program, registry,
// pointer result, SHBG, pairs, verdicts — which all key on *ir.Method
// identity, so a new revision is absorbed by patching bodies into this
// program (ir.Method.ReplaceBody), never by re-parsing into a new one.
type Baseline struct {
	// Mu serializes revisions against this baseline: Apply mutates the
	// program and the result in place.
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
	// Nil baselines still support tier-1 Apply; ApplyStages requires it.
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

// Stats describes one Apply outcome.
type Stats struct {
	// Plan is the planner's decision (Plan.OK false on fallback).
	Plan Plan
	// PairsTotal is the baseline's racy-pair count.
	PairsTotal int
	// PairsRerefuted counts the pairs whose verdicts were recomputed;
	// the rest were reused. Always < PairsTotal when any pair avoided
	// the changed methods.
	PairsRerefuted int
}

// CanApply reports whether the baseline is a sound reuse source at all:
// complete (not interrupted, refutation ran over every pair) and not
// poisoned by a failed patch. Partial baselines are never reused — the
// spliced verdict array must cover exactly the pair set.
func (b *Baseline) CanApply() bool {
	return b != nil && !b.Poisoned && !b.Res.Interrupted &&
		len(b.Res.AllVerdicts) == len(b.Res.RacyPairs)
}

// Apply absorbs the revision (next, nextFP, nextDigest) into the
// baseline incrementally: it patches the changed method bodies into the
// baseline program, reuses the registry/pointer/SHBG/pair artifacts
// outright, re-refutes only the pairs whose action bodies (root methods
// plus their callee closure) include a changed method, and re-ranks.
// On success the baseline describes the new revision exactly as a cold
// full run would — byte-identical reports — and Stats says how much
// work was saved.
//
// Apply returns (stats, false) without mutating anything when the
// planner declines; the caller then runs the full pipeline and replaces
// the baseline. If the in-place patch itself fails (impossible while
// skeleton equality implies shape equality; defended anyway), the
// baseline is marked Poisoned and must be discarded.
//
// Verdict-splicing is sound because symexec refutes every pair from
// empty memos, so a verdict depends on nothing but its pair. cfg must
// match the baseline's refutation budgets; `sierra serve` pins one
// refutation config for the daemon's lifetime. If cfg.Ctx interrupts
// the re-refutation, the baseline is poisoned and Apply declines.
//
// The caller must hold b.Mu.
func (b *Baseline) Apply(next *apk.App, nextFP *Fingerprint, nextDigest string, cfg symexec.Config, tr *obs.Trace) (Stats, bool) {
	st := Stats{PairsTotal: len(b.Res.RacyPairs)}
	if !b.CanApply() {
		st.Plan = Plan{Reason: "baseline-partial"}
		tr.Count("incremental.fallbacks", 1)
		return st, false
	}
	st.Plan = PlanReuse(b.FP, nextFP)
	if !st.Plan.OK {
		tr.Count("incremental.fallbacks", 1)
		return st, false
	}
	t0 := time.Now()
	span := tr.Start("incremental.apply")
	defer span.End()

	// Patch the changed bodies into the baseline program. Site ids
	// transfer inside ReplaceBody.
	changedSet := make(map[*ir.Method]bool, len(st.Plan.Changed))
	for _, qn := range st.Plan.Changed {
		old, donor, err := b.resolveEdit(next, qn)
		if err == nil {
			err = old.ReplaceBody(donor)
		}
		if err != nil {
			b.Poisoned = true
			st.Plan = Plan{Reason: "patch:" + err.Error()}
			tr.Count("incremental.fallbacks", 1)
			return st, false
		}
		changedSet[old] = true
	}

	// Re-refute exactly the pairs whose refutation walks can observe a
	// changed body: the walker explores an action's root methods plus
	// their inlined callees, so the callee closure over the pointer
	// result's call edges (depth-unbounded — a superset of the walker's
	// depth-bounded inlining) is a sound "touches changed code" test.
	touched := b.touchedActions(changedSet)
	verdicts := append([]symexec.Verdict(nil), b.Res.AllVerdicts...)
	var redo []int
	for i, p := range b.Res.RacyPairs {
		if touched[p.A.Action] || touched[p.B.Action] {
			redo = append(redo, i)
		}
	}
	if !b.rerefute(redo, b.Res.RacyPairs, verdicts, cfg) {
		b.Poisoned = true
		st.Plan = Plan{Reason: "refute-interrupted", Changed: st.Plan.Changed}
		tr.Count("incremental.fallbacks", 1)
		return st, false
	}
	st.PairsRerefuted = len(redo)

	// Rebuild the surviving set and re-rank on the patched program
	// (ranking reads guard fields from the live bodies, exactly like a
	// cold run on the new revision).
	var survivors = b.Res.RacyPairs[:0:0]
	var sverdicts []symexec.Verdict
	for i, v := range verdicts {
		if v.TruePositive {
			survivors = append(survivors, b.Res.RacyPairs[i])
			sverdicts = append(sverdicts, v)
		}
	}
	b.Res.AllVerdicts = verdicts
	b.Res.Verdicts = sverdicts
	b.Res.Reports = report.Rank(b.App.Program, survivors, sverdicts)
	b.Digest = nextDigest
	b.FP = nextFP

	tr.Count("incremental.applies", 1)
	tr.Count("incremental.methods_changed", int64(len(st.Plan.Changed)))
	tr.Count("incremental.pairs_rerefuted", int64(st.PairsRerefuted))
	tr.Count("incremental.pairs_reused", int64(st.PairsTotal-st.PairsRerefuted))
	tr.Count("race.pairs_total", int64(st.PairsTotal))
	tr.Observe("incremental.apply_ms", float64(time.Since(t0))/1e6)
	return st, true
}

// rerefute refutes pairs[i] for every i in redo with one CheckAll call
// and stores each verdict at verdicts[i]. It reports false, leaving
// verdicts partly written, when cfg.Ctx interrupted the run.
func (b *Baseline) rerefute(redo []int, pairs []race.Pair, verdicts []symexec.Verdict, cfg symexec.Config) bool {
	sub := make([]race.Pair, len(redo))
	for k, i := range redo {
		sub[k] = pairs[i]
	}
	got, interrupted := symexec.CheckAll(b.Res.Registry, b.Res.PTA, cfg, sub)
	if interrupted {
		return false
	}
	for k, i := range redo {
		verdicts[i] = got[k]
	}
	return true
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

// touchedActions maps action id → whether the action's root methods or
// any method reachable from them through the pointer result's call
// edges is in changed. A plain per-action BFS: quadratic at worst over
// methods, which is nothing at app scale, and trivially sound (a memo
// shared across a cyclic call graph would need care not to cache a
// provisional miss).
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
		touched[id] = hit
	}
	return touched
}
