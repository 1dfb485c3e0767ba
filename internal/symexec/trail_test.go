package symexec

import (
	"testing"
	"testing/quick"

	"sierra/internal/corpus"
	"sierra/internal/obs"
	"sierra/internal/race"
)

// copyConstraint deep-copies a constraint (private ne backing array;
// the eq value is inline and copies with the struct).
func copyConstraint(c constraint) constraint {
	out := c
	if len(c.ne) > 0 {
		out.ne = append([]value(nil), c.ne...)
	}
	return out
}

// snapshotStore deep-copies a store, including loc maps and ne lists,
// so later mutation of the original cannot alias into the snapshot.
func snapshotStore(s *store) *store {
	out := newStore()
	for k, c := range s.vars {
		out.vars[k] = copyConstraint(c)
	}
	for k, c := range s.locs {
		out.locs[k] = copyConstraint(c)
	}
	return out
}

// trailOp is one randomized store mutation, decoded from fuzz bytes.
// It returns false only for a constrainVar* call that found the store
// unsatisfiable.
func trailOp(s *store, opTag, nameTag, valTag uint8, i int64, b bool) bool {
	name := string('a' + rune(nameTag%5))
	lk := locKey{field: name, static: true, class: "C"}
	v := randValue(valTag, i, b)
	switch opTag % 6 {
	case 0:
		s.setVar(name, mustEq(v))
	case 1:
		s.delVar(name)
	case 2:
		s.setLoc(lk, constraint{ne: []value{v}})
	case 3:
		s.delLoc(lk)
	case 4:
		return s.constrainVarEq(name, v)
	case 5:
		return s.constrainVarNe(name, v)
	}
	return true
}

// TestTrailRollbackExactRestore property: any sequence of trail-logged
// mutations rolled back to a mark restores the store exactly — same
// vars, same loc map, same ne lists in order — and drains the trail to
// the mark.
func TestTrailRollbackExactRestore(t *testing.T) {
	f := func(ops []uint8, seedVals []int64, b bool) bool {
		// Random base store (built trail-free).
		base := newStore()
		for i, sv := range seedVals {
			trailOp(base, uint8(i), uint8(sv), uint8(sv>>8), sv%9, b)
		}
		want := snapshotStore(base)

		tr := &trail{}
		base.tr = tr
		mark := tr.mark()
		for i := 0; i+3 < len(ops); i += 4 {
			trailOp(base, ops[i], ops[i+1], ops[i+2], int64(ops[i+3])%9, b)
		}
		base.rollback(mark)

		return len(tr.ops) == mark && storesEqual(base, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestTrailRollbackNestedMarks rollbacks must compose: undoing an inner
// mark leaves the outer prefix intact, and undoing the outer mark
// restores the original store.
func TestTrailRollbackNestedMarks(t *testing.T) {
	f := func(outer, inner []uint8, b bool) bool {
		base := newStore()
		tr := &trail{}
		base.tr = tr

		m0 := tr.mark()
		for i := 0; i+3 < len(outer); i += 4 {
			trailOp(base, outer[i], outer[i+1], outer[i+2], int64(outer[i+3])%9, b)
		}
		afterOuter := snapshotStore(base)

		m1 := tr.mark()
		for i := 0; i+3 < len(inner); i += 4 {
			trailOp(base, inner[i], inner[i+1], inner[i+2], int64(inner[i+3])%9, b)
		}
		base.rollback(m1)
		if !storesEqual(base, afterOuter) {
			return false
		}
		base.rollback(m0)
		return len(tr.ops) == 0 && storesEqual(base, newStore())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestFailedConstrainWritesNothing property: a constrainVarEq or
// constrainVarNe call that finds the store unsatisfiable leaves the
// trail length and the store exactly as they were. walkPreds relies on
// it to prune an infeasible branch without a rollback.
func TestFailedConstrainWritesNothing(t *testing.T) {
	failed := 0
	f := func(ops []uint8, eq bool, nameTag, valTag uint8, i int64, b bool) bool {
		s := newStore()
		tr := &trail{}
		s.tr = tr
		for k := 0; k+3 < len(ops); k += 4 {
			trailOp(s, ops[k], ops[k+1], ops[k+2], int64(ops[k+3])%9, b)
		}
		want, n := snapshotStore(s), len(tr.ops)
		op := uint8(5)
		if eq {
			op = 4
		}
		if trailOp(s, op, nameTag, valTag, i%9, b) {
			return true
		}
		failed++
		return len(tr.ops) == n && storesEqual(s, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
	if failed < 50 {
		t.Fatalf("only %d of 2000 cases made a constrain call fail; the property is barely exercised", failed)
	}
}

// TestTrailWalkRestoresStore walks real inlined graphs (generated with
// randomized corpus knobs) end to end and requires that (a) the seed
// store handed to the walker is never mutated, (b) the reusable scratch
// store is back to the seed state after every walk, and (c) the trail
// is fully drained — the invariants that make scratch reuse sound.
func TestTrailWalkRestoresStore(t *testing.T) {
	knobs := []corpus.Knobs{
		{Activities: 1, GuardTotal: 2, GuardFields: 2},
		{Activities: 2, AsyncTotal: 3, AsyncFields: 1, GuardTotal: 1, GuardFields: 1},
		{Activities: 1, ImplicitTotal: 2, ImplicitFields: 2, WithReceiver: true},
	}
	for ki, k := range knobs {
		app, _ := corpus.Generate("TrailWalk", "1k", k)
		reg, res, pairs := analyzeForCheckAll(t, app)
		ref := NewRefuter(reg, res, Config{})
		for _, p := range pairs {
			for _, acc := range []race.Access{p.A, p.B} {
				for si, seed := range ref.whatSeeds(acc.Action) {
					// Frozen seeds are immutable by construction; thaw a
					// reference copy to check scratch restoration against.
					want := seed.thaw()
					for _, g := range ref.actionGraphs(acc.Action) {
						w := ref.newWalker(g, acc.Action, 1000)
						for _, start := range g.byPos[acc.Pos] {
							w.collectEntryFrom(start, seed, func(*store) {})
							if !seed.equalsStore(want) {
								t.Fatalf("knobs[%d] seed %d: walk mutated the seed store", ki, si)
							}
							if !storesEqual(&ref.walkStore, want) {
								t.Fatalf("knobs[%d] seed %d: scratch store not restored after walk", ki, si)
							}
							if len(ref.walkTrail.ops) != 0 {
								t.Fatalf("knobs[%d] seed %d: trail not drained: %d ops", ki, si, len(ref.walkTrail.ops))
							}
						}
					}
				}
			}
		}
	}
}

// TestWitnessMemoHitReportsZeroPaths regression: a memoized E-walk
// answer must cost zero explored paths on the repeat query (the cached
// verdict is reused, not re-walked).
func TestWitnessMemoHitReportsZeroPaths(t *testing.T) {
	reg, res, pairs := analyzeForCheckAll(t, corpus.SudokuTimerApp())
	ref := NewRefuter(reg, res, Config{})
	acc := pairs[0].A
	init := newStore()

	ok1, used1, _ := ref.witness(acc, init, ref.Cfg.MaxPaths)
	if used1 == 0 {
		t.Fatal("first witness query explored no paths (fixture too trivial)")
	}
	ok2, used2, _ := ref.witness(acc, init, ref.Cfg.MaxPaths)
	if ok2 != ok1 {
		t.Errorf("cached witness verdict flipped: first %v, repeat %v", ok1, ok2)
	}
	if used2 != 0 {
		t.Errorf("cached witness hit explored %d paths, want 0", used2)
	}
}

// TestRecordVerdictCappedCounter refute.entry_stores_capped is emitted
// exactly when an A-walk dropped stores at the cap, with the dropped
// count as the delta.
func TestRecordVerdictCappedCounter(t *testing.T) {
	tr := obs.New("test")
	recordVerdict(tr, Verdict{}, 0, 0, -1)
	if got := tr.Counter("refute.entry_stores_capped"); got != 0 {
		t.Errorf("uncapped pair emitted refute.entry_stores_capped = %d", got)
	}
	recordVerdict(tr, Verdict{}, 0, 7, -1)
	if got := tr.Counter("refute.entry_stores_capped"); got != 7 {
		t.Errorf("refute.entry_stores_capped = %d, want 7", got)
	}
}
