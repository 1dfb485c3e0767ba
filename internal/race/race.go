// Package race generates candidate event races: it collects the memory
// accesses ⟨x, τ, A⟩ of every action (§4.1) and pairs accesses from
// different, HB-unordered actions that touch overlapping memory with at
// least one write — the paper's "racy pairs", which the symbolic
// refuter then prunes.
package race

import (
	"fmt"
	"sort"

	"sierra/internal/actions"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/shbg"
)

// AccessKind is read or write.
type AccessKind int

const (
	// Read is a heap load.
	Read AccessKind = iota
	// Write is a heap store.
	Write
)

func (k AccessKind) String() string {
	if k == Write {
		return "write"
	}
	return "read"
}

// Access is one memory access attributed to an action.
type Access struct {
	// Action is the owning action's id.
	Action int
	// Pos locates the access statement.
	Pos ir.Pos
	// Kind is read or write.
	Kind AccessKind
	// Field is the accessed field name.
	Field string
	// Static marks static-field accesses; Class qualifies them.
	Static bool
	Class  string
	// BaseVar is the base variable of instance accesses (for the
	// refuter's queries).
	BaseVar string
	// Objs is the points-to set of the base (nil for statics).
	Objs pointer.ObjSet
	// InFramework marks accesses inside framework model code.
	InFramework bool
	// InLibrary marks accesses inside bundled library code.
	InLibrary bool
	// IsRef marks accesses to reference-typed state (the field holds
	// objects) — racy reference updates can yield NullPointerException,
	// which the prioritizer ranks highest.
	IsRef bool
}

// Location renders the field identity.
func (a Access) Location() string {
	if a.Static {
		return a.Class + "." + a.Field
	}
	return "." + a.Field
}

func (a Access) String() string {
	return fmt.Sprintf("A%d %s %s @%v", a.Action, a.Kind, a.Location(), a.Pos)
}

// Pair is a candidate race: two unordered accesses to overlapping
// memory, at least one a write.
type Pair struct {
	A, B Access
}

// Key canonically identifies the pair (for dedup and stable output).
func (p Pair) Key() string {
	return fmt.Sprintf("%d@%v/%d@%v:%s", p.A.Action, p.A.Pos, p.B.Action, p.B.Pos, p.A.Field)
}

// CollectAccesses gathers every heap access of every action from the
// analysis result, merging duplicate (action, site) entries across
// contexts.
func CollectAccesses(reg *actions.Registry, res *pointer.Result) []Access {
	return CollectAccessesTraced(reg, res, nil)
}

// CollectAccessesTraced is CollectAccesses with observability: it counts
// the merged accesses into race.accesses (nil Trace = no-op).
func CollectAccessesTraced(reg *actions.Registry, res *pointer.Result, tr *obs.Trace) []Access {
	insts := reg.ActionInstances(res)
	aids := make([]int, 0, len(insts))
	for aid := range insts {
		aids = append(aids, aid)
	}
	sort.Ints(aids)
	out := collectForActions(res, insts, aids)
	sortAccesses(out)
	tr.Count("race.accesses", int64(len(out)))
	return out
}

// collectForActions gathers and merges the given actions' accesses
// (unsorted), resolving IsRef against the current field points-to
// state. Shared by the cold collector and the incremental delta
// re-collection.
func collectForActions(res *pointer.Result, insts map[int][]pointer.MKey, aids []int) []Access {
	type key struct {
		action int
		pos    ir.Pos
		kind   AccessKind
	}
	merged := map[key]*Access{}

	record := func(aid int, mk pointer.MKey, pos ir.Pos, kind AccessKind, field, baseVar string, static bool, cls string) {
		k := key{action: aid, pos: pos, kind: kind}
		acc := merged[k]
		if acc == nil {
			acc = &Access{
				Action: aid, Pos: pos, Kind: kind, Field: field,
				Static: static, Class: cls, BaseVar: baseVar,
				InFramework: mk.M.Class != nil && mk.M.Class.Framework,
				InLibrary:   mk.M.Class != nil && mk.M.Class.Library,
			}
			if !static {
				acc.Objs = res.NewObjSet()
			}
			merged[k] = acc
		}
		if !static {
			acc.Objs.AddAll(res.PointsTo(mk.M, mk.Ctx, baseVar))
		}
	}

	for _, aid := range aids {
		for _, mk := range insts[aid] {
			if mk.M.Class != nil && harness.IsSynthetic(mk.M.Class.Name) {
				continue
			}
			for bi, blk := range mk.M.Blocks {
				for si, s := range blk.Stmts {
					pos := ir.Pos{Method: mk.M, Block: bi, Index: si}
					switch st := s.(type) {
					case *ir.Load:
						record(aid, mk, pos, Read, st.Field, st.Obj, false, "")
					case *ir.Store:
						record(aid, mk, pos, Write, st.Field, st.Obj, false, "")
					case *ir.StaticLoad:
						record(aid, mk, pos, Read, st.Field, "", true, st.Class)
					case *ir.StaticStore:
						record(aid, mk, pos, Write, st.Field, "", true, st.Class)
					}
				}
			}
		}
	}

	out := make([]Access, 0, len(merged))
	for _, acc := range merged {
		setIsRef(res, acc)
		out = append(out, *acc)
	}
	return out
}

// setIsRef resolves the reference-typed-state flag: some pointee of the
// base holds objects under this field, or the static slot holds
// objects. The flag reads global field points-to state, so incremental
// re-analysis must refresh it even on accesses it otherwise splices.
func setIsRef(res *pointer.Result, acc *Access) {
	if acc.Static {
		acc.IsRef = res.StaticPointsTo(acc.Class, acc.Field).Len() > 0
		return
	}
	acc.IsRef = false
	for _, o := range acc.Objs.Slice() {
		if res.FieldPointsTo(o, acc.Field).Len() > 0 {
			acc.IsRef = true
			break
		}
	}
}

// accessLess is the canonical access order: (action, position, kind).
// The key is unique — the merge map collapses duplicates — so the order
// is total and any sorted assembly of the same access set is identical.
func accessLess(a, b *Access) bool {
	if a.Action != b.Action {
		return a.Action < b.Action
	}
	if ap, bp := a.Pos.String(), b.Pos.String(); ap != bp {
		return ap < bp
	}
	return a.Kind < b.Kind
}

func sortAccesses(out []Access) {
	sort.Slice(out, func(i, j int) bool { return accessLess(&out[i], &out[j]) })
}

// RacyPairs intersects accesses across HB-unordered actions: same field,
// overlapping points-to sets (or the same static slot), at least one
// write, actions in compatible scopes.
func RacyPairs(reg *actions.Registry, g *shbg.Graph, accesses []Access) []Pair {
	return RacyPairsTraced(reg, g, accesses, nil)
}

// RacyPairsTraced is RacyPairs with observability: it counts the
// candidate funnel into race.pairs_considered (same-field combinations
// examined), race.alias_hits (pairs whose memory overlaps),
// race.hb_filtered (overlapping pairs dropped because HB orders them),
// and race.pairs_emitted (nil Trace = no-op).
func RacyPairsTraced(reg *actions.Registry, g *shbg.Graph, accesses []Access, tr *obs.Trace) []Pair {
	return racyPairsImpl(reg, g, accesses, nil, nil, tr)
}

// pairKey mirrors Pair.Key() structurally: dedup and prev-membership
// need no string formatting, only the report-order sort renders Key().
type pairKey struct {
	aAction int
	aPos    ir.Pos
	bAction int
	bPos    ir.Pos
	field   string
}

// racyPairsImpl is the shared pair generator. With edited == nil it is
// the cold path: every same-field combination runs the full alias /
// scope / HB filter chain. With edited non-nil (the incremental path,
// RacyPairsDelta) a combination whose endpoints both lie at positions
// outside the edited methods skips the chain entirely — its access
// values, alias relation, scopes, and (graph-equality-verified) HB
// edges are all provably unchanged from the baseline, so membership in
// prev IS the filter-chain outcome. Clean pairs are spliced straight
// from prev (rebuilt over the current access values, which carry the
// refreshed IsRef flags), and only combinations touching an
// edited-method position are enumerated at all, so the delta path never
// scans clean×clean. Dedup keys and the final canonical sort are
// identical either way, so the output is byte-for-byte the cold result.
func racyPairsImpl(reg *actions.Registry, g *shbg.Graph, accesses []Access, edited map[*ir.Method]bool, prev []Pair, tr *obs.Trace) []Pair {
	var considered, aliasHits, hbFiltered int64
	var out []Pair
	seen := map[pairKey]bool{}

	// chain runs the full filter chain on one combination and emits.
	chain := func(a, b *Access) {
		if a.Action == b.Action {
			return
		}
		considered++
		if a.Kind != Write && b.Kind != Write {
			return
		}
		if a.Static != b.Static {
			return
		}
		if a.Static {
			if a.Class != b.Class {
				return
			}
		} else if !a.Objs.Intersects(b.Objs) {
			return
		}
		aliasHits++
		actA, actB := reg.Get(a.Action), reg.Get(b.Action)
		if !actions.SameScope(actA, actB) {
			return
		}
		if g.Ordered(a.Action, b.Action) {
			hbFiltered++
			return
		}
		p := Pair{A: *a, B: *b}
		if a.Action > b.Action {
			p = Pair{A: *b, B: *a}
		}
		k := pairKey{p.A.Action, p.A.Pos, p.B.Action, p.B.Pos, p.A.Field}
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}

	if edited == nil {
		// Cold: bucket by field name — only same-named fields can
		// overlap — and run every combination through the chain.
		byField := map[string][]int{}
		for i := range accesses {
			byField[accesses[i].Field] = append(byField[accesses[i].Field], i)
		}
		fields := make([]string, 0, len(byField))
		for f := range byField {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			idxs := byField[f]
			for i := 0; i < len(idxs); i++ {
				for j := i + 1; j < len(idxs); j++ {
					chain(&accesses[idxs[i]], &accesses[idxs[j]])
				}
			}
		}
	} else {
		// Delta: splice every prev pair whose endpoints both lie outside
		// the edited methods, rebuilt over the current access values
		// ((action, position) names an access uniquely — one statement,
		// one kind), then enumerate only the combinations touching an
		// edited-method position. The two emission sets are disjoint —
		// spliced pairs touch no edited position, computed ones always do.
		type apKey struct {
			action int
			pos    ir.Pos
		}
		idxByAP := make(map[apKey]int, len(accesses))
		editedFields := map[string]bool{}
		for i := range accesses {
			idxByAP[apKey{accesses[i].Action, accesses[i].Pos}] = i
			if edited[accesses[i].Pos.Method] {
				editedFields[accesses[i].Field] = true
			}
		}
		for _, p := range prev {
			if edited[p.A.Pos.Method] || edited[p.B.Pos.Method] {
				continue
			}
			i, okA := idxByAP[apKey{p.A.Action, p.A.Pos}]
			j, okB := idxByAP[apKey{p.B.Action, p.B.Pos}]
			if !okA || !okB {
				// Unreachable while unedited methods keep their access
				// sets; fail safe by dropping rather than splicing stale
				// values.
				continue
			}
			np := Pair{A: accesses[i], B: accesses[j]}
			k := pairKey{np.A.Action, np.A.Pos, np.B.Action, np.B.Pos, np.A.Field}
			if !seen[k] {
				seen[k] = true
				out = append(out, np)
			}
		}
		byField := map[string][]int{}
		for i := range accesses {
			if editedFields[accesses[i].Field] {
				byField[accesses[i].Field] = append(byField[accesses[i].Field], i)
			}
		}
		fields := make([]string, 0, len(byField))
		for f := range byField {
			fields = append(fields, f)
		}
		sort.Strings(fields)
		for _, f := range fields {
			idxs := byField[f]
			for i := 0; i < len(idxs); i++ {
				for j := i + 1; j < len(idxs); j++ {
					a, b := &accesses[idxs[i]], &accesses[idxs[j]]
					if !edited[a.Pos.Method] && !edited[b.Pos.Method] {
						continue
					}
					chain(a, b)
				}
			}
		}
	}
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].Key()
	}
	sort.Sort(&pairsByKey{pairs: out, keys: keys})
	tr.Count("race.pairs_considered", considered)
	tr.Count("race.alias_hits", aliasHits)
	tr.Count("race.hb_filtered", hbFiltered)
	tr.Count("race.pairs_emitted", int64(len(out)))
	return out
}

// pairsByKey sorts pairs by their canonical Key with each key rendered
// once, not O(n log n) times inside the comparator.
type pairsByKey struct {
	pairs []Pair
	keys  []string
}

func (s *pairsByKey) Len() int           { return len(s.pairs) }
func (s *pairsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *pairsByKey) Swap(i, j int) {
	s.pairs[i], s.pairs[j] = s.pairs[j], s.pairs[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}
