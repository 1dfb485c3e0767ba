package incremental

import (
	"fmt"

	"sierra/internal/appfile"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

// This file is the static edit gate for visible edits (Plan.Visible):
// changed bodies the fixpoint stages can see, which ApplyStages absorbs
// by patching the pointer, SHBG and pair stages instead of reusing them
// as is. The gate (stageGate) admits only edits for which cold-equality
// is provable — inserted statements must be dataflow sinks (fresh
// destinations, so nothing flows into facts the baseline already
// derived, and in particular the action-discovery order that bakes
// action ids into pointer contexts cannot shift), and removed
// statements must be provably inert at the baseline fixpoint (empty
// points-to sources). It runs before any mutation, so its declines
// leave the baseline untouched. What the gate cannot see, the patch
// step's runtime verification catches: any growth of a pre-existing
// points-to set, any new method instance, entry, or action, or any
// drift in the re-derived SHBG base edges poisons the baseline and
// forces a cold re-parse.

// maskedLine is the per-statement comparison the gate aligns bodies
// with: statements the fixpoint stages read compare by their full
// canonical line, If/BinOp by their skeleton mask (their operands are
// refutation-only). Return is solver-read, so a changed return value
// never masks to equal.
func maskedLine(s ir.Stmt) string {
	if pointer.SolverReads(s) {
		return appfile.StmtLine(s)
	}
	return string(appendSkeleton(nil, s))
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
// re-checked by ir.Method.ReplaceBody; checked here too so declines stay
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
