package race

import (
	"sierra/internal/actions"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/shbg"
)

// CollectAccessesDelta is CollectAccesses for an incrementally
// re-solved result. An access is keyed by its statement position, and a
// position's contributions come only from instances of its own method —
// so only accesses at positions inside an edited method can differ from
// prev. Those are re-collected (from every action instantiating an
// edited method, synthetic harness actions included); every other prev
// access is spliced — its statement, instance set, and base points-to
// set are provably unchanged in a non-poisoned warm apply. IsRef is the
// one spliced field that can still flip: it reads global field
// points-to state, which an edited body's inserted store can extend
// through a fresh key the re-solve growth check never sees.
// storedFields narrows that refresh: a fresh field-points-to key can
// only come from a store statement inside an edited method (any other
// route grows an old key, which the re-solve gate rejects), so only
// accesses to a field stored by an edited body can flip. Pass nil to
// refresh every spliced access.
// The returned slice is byte-for-byte what a cold CollectAccesses over
// the patched program would produce (both assemble the same unique-key
// access set in the same total order).
func CollectAccessesDelta(reg *actions.Registry, res *pointer.Result, prev []Access, edited map[*ir.Method]bool, storedFields map[string]bool, tr *obs.Trace) []Access {
	insts := reg.ActionInstances(res)
	sub := make([][]pointer.Inst, len(insts))
	for aid, ids := range insts {
		for _, id := range ids {
			if edited[res.Method(id)] {
				sub[aid] = append(sub[aid], id)
			}
		}
	}
	fresh := collectForActions(res, sub)
	sortAccesses(fresh)

	retained := make([]Access, 0, len(prev))
	for _, a := range prev {
		if edited[a.Pos.Method] {
			continue
		}
		if storedFields == nil || storedFields[a.Field] {
			setIsRef(res, &a)
		}
		retained = append(retained, a)
	}

	// Merge the two sorted runs under the canonical order.
	out := make([]Access, 0, len(retained)+len(fresh))
	i, j := 0, 0
	for i < len(retained) && j < len(fresh) {
		if accessLess(&retained[i], &fresh[j]) {
			out = append(out, retained[i])
			i++
		} else {
			out = append(out, fresh[j])
			j++
		}
	}
	out = append(out, retained[i:]...)
	out = append(out, fresh[j:]...)
	tr.Count("race.accesses", int64(len(out)))
	return out
}

// RacyPairsDelta is RacyPairs for an incrementally re-solved result.
// It must run after shbg.Rebuild verified the graph equal to the
// baseline's: with HB outcomes pinned, every filter-chain determinant
// of a combination whose endpoints both lie outside the edited methods
// — access values, alias sets, scopes, HB order — is unchanged, so
// membership in prev IS the chain outcome. Only combinations touching
// an edited-method position run the full chain. Output is byte-for-byte
// the cold result.
func RacyPairsDelta(reg *actions.Registry, g *shbg.Graph, accesses []Access, prev []Pair, edited map[*ir.Method]bool, tr *obs.Trace) []Pair {
	if edited == nil {
		edited = map[*ir.Method]bool{}
	}
	return racyPairsImpl(reg, g, accesses, edited, prev, tr)
}

// MatchPairs aligns two racy-pair tables by canonical pair key (action
// ids + positions + field — see Pair.Key). For each pair in next it
// returns the index of the identical pair in prev, or -1 when the pair
// is new; removed is how many prev pairs have no successor. Keys are
// position-sensitive on purpose: an access whose statement shifted is
// "new", so incremental re-analysis re-refutes it instead of splicing a
// stale verdict.
func MatchPairs(prev, next []Pair) (match []int, removed int) {
	byKey := make(map[string]int, len(prev))
	for i := range prev {
		byKey[prev[i].Key()] = i
	}
	match = make([]int, len(next))
	used := 0
	for i := range next {
		if j, ok := byKey[next[i].Key()]; ok {
			match[i] = j
			used++
		} else {
			match[i] = -1
		}
	}
	return match, len(prev) - used
}
