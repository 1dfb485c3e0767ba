// Package race generates candidate event races: it collects the memory
// accesses ⟨x, τ, A⟩ of every action (§4.1) and pairs accesses from
// different, HB-unordered actions that touch overlapping memory with at
// least one write — the paper's "racy pairs", which the symbolic
// refuter then prunes.
package race

import (
	"fmt"
	"sort"
	"strconv"

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

// Key canonically identifies the pair (for dedup and stable output):
// "A.Action@A.Pos/B.Action@B.Pos:Field". Pair generation and ranking
// render it for every pair, so it is built with byte appends in a
// stack buffer, one allocation for the string.
func (p Pair) Key() string {
	var buf [128]byte
	b := strconv.AppendInt(buf[:0], int64(p.A.Action), 10)
	b = p.A.Pos.Append(append(b, '@'))
	b = strconv.AppendInt(append(b, '/'), int64(p.B.Action), 10)
	b = p.B.Pos.Append(append(b, '@'))
	return string(append(append(b, ':'), p.A.Field...))
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
	out := collectForActions(res, reg.ActionInstances(res))
	sortAccesses(out)
	tr.Count("race.accesses", int64(len(out)))
	return out
}

// collectForActions gathers and merges the accesses of the instances
// insts attributes to each action id (unsorted), resolving IsRef
// against the current field points-to state. Shared by the cold
// collector and the incremental delta re-collection.
func collectForActions(res *pointer.Result, insts [][]pointer.Inst) []Access {
	type key struct {
		action int
		pos    ir.Pos
		kind   AccessKind
	}
	merged := map[key]int{}
	var out []Access

	record := func(aid int, id pointer.Inst, pos ir.Pos, kind AccessKind, field, baseVar string, static bool, cls string) {
		k := key{action: aid, pos: pos, kind: kind}
		i, ok := merged[k]
		if !ok {
			m := pos.Method
			i = len(out)
			merged[k] = i
			out = append(out, Access{
				Action: aid, Pos: pos, Kind: kind, Field: field,
				Static: static, Class: cls, BaseVar: baseVar,
				InFramework: m.Class != nil && m.Class.Framework,
				InLibrary:   m.Class != nil && m.Class.Library,
			})
			if !static {
				out[i].Objs = res.NewObjSet()
			}
		}
		if !static {
			out[i].Objs.AddAll(res.LocalPointsTo(id, baseVar))
		}
	}

	for aid, ids := range insts {
		for _, id := range ids {
			m := res.Method(id)
			if m.Class != nil && harness.IsSynthetic(m.Class.Name) {
				continue
			}
			for bi, blk := range m.Blocks {
				for si, s := range blk.Stmts {
					pos := ir.Pos{Method: m, Block: bi, Index: si}
					switch st := s.(type) {
					case *ir.Load:
						record(aid, id, pos, Read, st.Field, st.Obj, false, "")
					case *ir.Store:
						record(aid, id, pos, Write, st.Field, st.Obj, false, "")
					case *ir.StaticLoad:
						record(aid, id, pos, Read, st.Field, "", true, st.Class)
					case *ir.StaticStore:
						record(aid, id, pos, Write, st.Field, "", true, st.Class)
					}
				}
			}
		}
	}

	for i := range out {
		setIsRef(res, &out[i])
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
	acc.IsRef = acc.Objs.Any(func(o pointer.Obj) bool {
		return res.FieldPointsTo(o, acc.Field).Len() > 0
	})
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

// sortAccesses sorts into the canonical order (accessLess) with each
// position rendered once, not O(n log n) times inside the comparator.
func sortAccesses(out []Access) {
	pos := make([]string, len(out))
	for i := range out {
		pos[i] = out[i].Pos.String()
	}
	sort.Sort(&accessesByKey{accs: out, pos: pos})
}

// accessesByKey sorts accesses by accessLess over pre-rendered
// positions, keeping the two slices aligned.
type accessesByKey struct {
	accs []Access
	pos  []string
}

func (s *accessesByKey) Len() int { return len(s.accs) }
func (s *accessesByKey) Less(i, j int) bool {
	a, b := &s.accs[i], &s.accs[j]
	if a.Action != b.Action {
		return a.Action < b.Action
	}
	if s.pos[i] != s.pos[j] {
		return s.pos[i] < s.pos[j]
	}
	return a.Kind < b.Kind
}
func (s *accessesByKey) Swap(i, j int) {
	s.accs[i], s.accs[j] = s.accs[j], s.accs[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}

// RacyPairs intersects accesses across HB-unordered actions: same field,
// overlapping points-to sets (or the same static slot), at least one
// write, actions in compatible scopes. The accesses must come from one
// analysis result (as CollectAccesses returns them), whose points-to
// sets share one object id space.
func RacyPairs(reg *actions.Registry, g *shbg.Graph, accesses []Access) []Pair {
	return RacyPairsTraced(reg, g, accesses, nil)
}

// RacyPairsTraced is RacyPairs with observability: it counts the
// candidate funnel into race.pairs_considered (same-field combinations
// of distinct actions), race.alias_hits (those whose memory overlaps,
// with a write),
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
// the cold path: every same-field combination is a candidate. With
// edited non-nil (the incremental path, RacyPairsDelta) a combination
// whose endpoints both lie at positions outside the edited methods is
// not enumerated at all — its access values, alias relation, scopes,
// and (graph-equality-verified) HB edges are all provably unchanged
// from the baseline, so membership in prev IS the filter-chain outcome.
// Clean pairs are spliced straight from prev (rebuilt over the current
// access values, which carry the refreshed IsRef flags), and only
// combinations touching an edited-method position are candidates.
//
// Either way candidates are reached through a per-field inverted index
// (aliasIndex) from object — or, for statics, class — to accesses, so
// only combinations that alias and include a write meet the scope/HB
// chain; race.pairs_considered still counts every same-field
// combination of distinct actions among the candidates. Emission order
// is free: dedup keys and the final canonical sort make the output
// byte-for-byte the all-combinations result.
func racyPairsImpl(reg *actions.Registry, g *shbg.Graph, accesses []Access, edited map[*ir.Method]bool, prev []Pair, tr *obs.Trace) []Pair {
	var considered, aliasHits, hbFiltered int64
	var out []Pair
	seen := map[pairKey]bool{}
	emit := func(p Pair) {
		k := pairKey{p.A.Action, p.A.Pos, p.B.Action, p.B.Pos, p.A.Field}
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}

	// chain runs the scope/HB filters on an aliasing combination of
	// distinct actions with at least one write, and emits.
	chain := func(a, b *Access) {
		aliasHits++
		if !actions.SameScope(reg.Get(a.Action), reg.Get(b.Action)) {
			return
		}
		if g.Ordered(a.Action, b.Action) {
			hbFiltered++
			return
		}
		if a.Action > b.Action {
			a, b = b, a
		}
		emit(Pair{A: *a, B: *b})
	}

	// mine marks the accesses whose combinations are candidates: all of
	// them cold, those at edited positions on the delta path.
	mine := make([]bool, len(accesses))
	byField := map[string][]int{}
	if edited == nil {
		for i := range accesses {
			mine[i] = true
			byField[accesses[i].Field] = append(byField[accesses[i].Field], i)
		}
	} else {
		// Splice every prev pair whose endpoints both lie outside the
		// edited methods, rebuilt over the current access values
		// ((action, position) names an access uniquely — one statement,
		// one kind). The emission sets are disjoint — spliced pairs
		// touch no edited position, computed ones always do.
		type apKey struct {
			action int
			pos    ir.Pos
		}
		idxByAP := make(map[apKey]int, len(accesses))
		editedFields := map[string]bool{}
		for i := range accesses {
			idxByAP[apKey{accesses[i].Action, accesses[i].Pos}] = i
			if edited[accesses[i].Pos.Method] {
				mine[i] = true
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
			emit(Pair{A: accesses[i], B: accesses[j]})
		}
		for i := range accesses {
			if editedFields[accesses[i].Field] {
				byField[accesses[i].Field] = append(byField[accesses[i].Field], i)
			}
		}
	}

	ix := newAliasIndex(len(accesses))
	for _, idxs := range byField {
		considered += distinctActionPairs(accesses, idxs, nil)
		if edited != nil {
			considered -= distinctActionPairs(accesses, idxs, mine)
		}
		ix.fill(accesses, idxs)
		for _, i := range idxs {
			if mine[i] {
				ix.partners(accesses, mine, i, func(j int) { chain(&accesses[j], &accesses[i]) })
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

// distinctActionPairs counts the combinations of two of idxs' accesses
// that belong to different actions, leaving out the accesses marked in
// skip (nil skips none).
func distinctActionPairs(accesses []Access, idxs []int, skip []bool) int64 {
	perAction := map[int]int64{}
	var n, same int64
	for _, i := range idxs {
		if skip != nil && skip[i] {
			continue
		}
		same += perAction[accesses[i].Action]
		perAction[accesses[i].Action]++
		n++
	}
	return n*(n-1)/2 - same
}

// aliasIndex is one field's inverted index: for every object (by dense
// id) and every static field's class, the reading and the writing
// accesses, each list ascending.
type aliasIndex struct {
	objs    map[int]*kindLists
	classes map[string]*kindLists
	ids     []int
	// stamp[j] == i+1 marks j as met while collecting i's partners, so
	// a partner sharing several objects with i is met once.
	stamp []int
}

// kindLists holds access indices by AccessKind (Read, Write).
type kindLists [2][]int

func newAliasIndex(n int) *aliasIndex {
	return &aliasIndex{
		objs:    map[int]*kindLists{},
		classes: map[string]*kindLists{},
		stamp:   make([]int, n),
	}
}

// fill indexes one field's accesses, replacing the previous field's.
func (x *aliasIndex) fill(accesses []Access, idxs []int) {
	clear(x.objs)
	clear(x.classes)
	for _, i := range idxs {
		a := &accesses[i]
		if a.Static {
			addTo(x.classes, a.Class, a.Kind, i)
			continue
		}
		x.ids = a.Objs.AppendIDs(x.ids[:0])
		for _, id := range x.ids {
			addTo(x.objs, id, a.Kind, i)
		}
	}
}

// addTo appends access i to the list of its kind under key k.
func addTo[K comparable](m map[K]*kindLists, k K, kind AccessKind, i int) {
	l := m[k]
	if l == nil {
		l = &kindLists{}
		m[k] = l
	}
	l[kind] = append(l[kind], i)
}

// partners calls fn once for every access j of i's field and of another
// action that shares memory with i, where at least one of the two
// writes and i is the endpoint that owns the combination. Only accesses
// marked mine own combinations: a read owns those with every write, a
// write those with the writes before it and with the writes and reads
// not marked mine. So every candidate combination is met exactly once,
// and a read-read combination never.
func (x *aliasIndex) partners(accesses []Access, mine []bool, i int, fn func(j int)) {
	a := &accesses[i]
	visit := func(l *kindLists) {
		if l == nil {
			return
		}
		for _, j := range l[Write] {
			if a.Kind == Write && (j == i || mine[j] && j > i) {
				continue
			}
			x.meet(accesses, i, j, fn)
		}
		if a.Kind == Write {
			for _, j := range l[Read] {
				if !mine[j] {
					x.meet(accesses, i, j, fn)
				}
			}
		}
	}
	if a.Static {
		visit(x.classes[a.Class])
		return
	}
	x.ids = a.Objs.AppendIDs(x.ids[:0])
	for _, id := range x.ids {
		visit(x.objs[id])
	}
}

func (x *aliasIndex) meet(accesses []Access, i, j int, fn func(j int)) {
	if x.stamp[j] == i+1 || accesses[j].Action == accesses[i].Action {
		return
	}
	x.stamp[j] = i + 1
	fn(j)
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
