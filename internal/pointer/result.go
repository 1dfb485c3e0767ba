package pointer

import (
	"sort"
	"sync"

	"sierra/internal/bitset"
	"sierra/internal/ir"
)

// Result holds the points-to sets and the context-sensitive call graph
// produced by Analyze. Its tables are keyed by dense ids (see ids.go):
// queries name method instances by Inst, or by MKey through Lookup.
type Result struct {
	Policy Policy
	// Interrupted marks that the fixpoint stopped early because the
	// configured context was cancelled: every recorded fact is real, but
	// the call graph and points-to sets may be incomplete.
	Interrupted bool

	in  *Interner
	ctx ctxTable
	// insts holds the method instances in discovery order (an instance's
	// id is its index); instIdx finds one by method and context id.
	insts   []*instance
	instIdx map[instKey]Inst
	// byMethod indexes instances by method in discovery order, kept
	// current by every install (warm re-solves included), so per-method
	// queries and the solver's seed propagation never scan all instances.
	byMethod map[*ir.Method][]Inst
	entries  []Inst
	// Field sets are keyed by (object id, field id) and indexed in
	// materialization order; statics by their "Class.field" key.
	fieldIDs   map[string]int32
	fieldNames []string
	fieldIdx   map[uint64]int32
	fsets      []fieldSet
	staticIdx  map[string]int32
	ssets      []staticSet
	passes     int

	// cmOnce/cmByPos back CalleeMethods: the context-insensitive
	// pos → sorted-methods view is a pure function of the (immutable)
	// call edges, computed once per Result and shared read-only.
	cmOnce  sync.Once
	cmByPos map[ir.Pos][]*ir.Method
}

// fieldSet is one object field's set.
type fieldSet struct {
	obj   uint32
	field int32
	set   ObjSet
}

// staticSet is one static field's set; the zero set marks a static
// whose set no transfer has materialized.
type staticSet struct {
	key string
	set ObjSet
}

func newResult(pol Policy, in *Interner) *Result {
	return &Result{
		Policy:    pol,
		in:        in,
		ctx:       ctxTable{ids: make(map[Context]int32)},
		instIdx:   make(map[instKey]Inst),
		byMethod:  make(map[*ir.Method][]Inst),
		fieldIDs:  make(map[string]int32),
		fieldIdx:  make(map[uint64]int32),
		staticIdx: make(map[string]int32),
	}
}

// fieldKey packs an (object id, field id) pair into one map key.
func fieldKey(obj uint32, field int32) uint64 {
	return uint64(obj)<<32 | uint64(uint32(field))
}

// fieldID returns a field name's id, assigning the next one on first
// sight.
func (r *Result) fieldID(name string) int32 {
	if id, ok := r.fieldIDs[name]; ok {
		return id
	}
	id := int32(len(r.fieldNames))
	r.fieldIDs[name] = id
	r.fieldNames = append(r.fieldNames, name)
	return id
}

// fieldName returns the name of field id.
func (r *Result) fieldName(id int32) string { return r.fieldNames[id] }

// staticID returns the id of static field cls.field, assigning the next
// one on first sight.
func (r *Result) staticID(cls, field string) int32 {
	key := cls + "." + field
	if id, ok := r.staticIdx[key]; ok {
		return id
	}
	id := int32(len(r.ssets))
	r.ssets = append(r.ssets, staticSet{key: key})
	r.staticIdx[key] = id
	return id
}

// NewObjSet returns an empty mutable set in this result's dense-id
// space — the constructor downstream consumers (race, symexec) use to
// union points-to sets word-parallel.
func (r *Result) NewObjSet() ObjSet { return r.in.NewSet() }

// Interner exposes the result's id space (for equivalence tests and
// diagnostics).
func (r *Result) Interner() *Interner { return r.in }

// Lookup returns the id of the instance mk, if the analysis reached it.
func (r *Result) Lookup(mk MKey) (Inst, bool) {
	ctx, ok := r.ctx.ids[mk.Ctx]
	if !ok {
		return 0, false
	}
	id, ok := r.instIdx[instKey{mk.M, ctx}]
	return id, ok
}

// Method returns instance i's method.
func (r *Result) Method(i Inst) *ir.Method { return r.insts[i].m }

// Key returns instance i's (method, context) key.
func (r *Result) Key(i Inst) MKey {
	inst := r.insts[i]
	return MKey{M: inst.m, Ctx: r.ctx.ctxs[inst.ctx]}
}

// LocalPointsTo returns the points-to set of variable v in instance i
// (nil-safe: a variable no transfer touched yields an empty set).
func (r *Result) LocalPointsTo(i Inst, v string) ObjSet {
	inst := r.insts[i]
	slot, ok := inst.info.lookup(v)
	if !ok {
		return ObjSet{}
	}
	return inst.varSet(slot)
}

// PointsToAll unions v's points-to sets across every context of m.
func (r *Result) PointsToAll(m *ir.Method, v string) ObjSet {
	out := r.in.NewSet()
	for _, id := range r.byMethod[m] {
		out.AddAll(r.LocalPointsTo(id, v))
	}
	return out
}

// FieldPointsTo returns what obj.field may point to.
func (r *Result) FieldPointsTo(obj Obj, field string) ObjSet {
	id, ok := r.in.lookup(obj)
	if !ok {
		return ObjSet{}
	}
	fid, ok := r.fieldIDs[field]
	if !ok {
		return ObjSet{}
	}
	if i, ok := r.fieldIdx[fieldKey(id, fid)]; ok {
		return r.fsets[i].set
	}
	return ObjSet{}
}

// StaticPointsTo returns what the static field cls.field may point to.
func (r *Result) StaticPointsTo(cls, field string) ObjSet {
	if i, ok := r.staticIdx[cls+"."+field]; ok {
		return r.ssets[i].set
	}
	return ObjSet{}
}

// MethodInstances returns the ids of m's instances in discovery order
// (shared: read-only).
func (r *Result) MethodInstances(m *ir.Method) []Inst { return r.byMethod[m] }

// NumInstances reports the call-graph node count; instance ids run from
// 0 to NumInstances()-1.
func (r *Result) NumInstances() int { return len(r.insts) }

// CalleesAt returns the callee instances of the call at pos inside the
// caller instance, in edge order (shared: read-only).
func (r *Result) CalleesAt(caller Inst, pos ir.Pos) []Inst {
	inst := r.insts[caller]
	if pos.Method != inst.m {
		return nil
	}
	ci := inst.info.callAt(pos)
	if ci == nil || int(ci.ord) >= len(inst.calls) {
		return nil
	}
	return inst.calls[ci.ord]
}

// ReachableFrom returns the instances reachable from the given roots
// over call edges (roots included), in ascending id order.
func (r *Result) ReachableFrom(roots ...Inst) []Inst {
	var seen bitset.Set
	work := make([]Inst, 0, len(roots))
	for _, root := range roots {
		if seen.Add(int(root)) {
			work = append(work, root)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, callees := range r.insts[i].calls {
			for _, c := range callees {
				if seen.Add(int(c)) {
					work = append(work, c)
				}
			}
		}
	}
	out := make([]Inst, 0, seen.Count())
	seen.ForEach(func(id int) { out = append(out, Inst(id)) })
	return out
}

// CalleeMethods flattens CalleesAt to methods — the shape the ICFG
// needs. The pos → sorted-methods view is computed once per Result
// (every refuter built over the same analysis shares it read-only).
func (r *Result) CalleeMethods() func(ir.Pos) []*ir.Method {
	r.cmOnce.Do(func() {
		// Precompute: pos -> methods (context-insensitively joined).
		byPos := make(map[ir.Pos]map[*ir.Method]bool)
		for _, inst := range r.insts {
			for ord, callees := range inst.calls {
				if len(callees) == 0 {
					continue
				}
				pos := inst.info.calls[ord].pos
				set := byPos[pos]
				if set == nil {
					set = make(map[*ir.Method]bool)
					byPos[pos] = set
				}
				for _, c := range callees {
					set[r.insts[c].m] = true
				}
			}
		}
		r.cmByPos = make(map[ir.Pos][]*ir.Method, len(byPos))
		for p, set := range byPos {
			out := make([]*ir.Method, 0, len(set))
			for m := range set {
				out = append(out, m)
			}
			sort.Slice(out, func(i, j int) bool {
				return out[i].QualifiedName() < out[j].QualifiedName()
			})
			r.cmByPos[p] = out
		}
	})
	byPos := r.cmByPos
	return func(p ir.Pos) []*ir.Method { return byPos[p] }
}

// ApproxBytes estimates the result's resident memory: bitset words of
// every points-to set plus flat per-entry overhead for the id tables and
// the call graph. It deliberately overcounts a little (map buckets,
// interner strings) rather than undercount — the serve baseline pool
// uses it as an eviction budget, where "approximately right and stable"
// beats exact.
func (r *Result) ApproxBytes() int64 {
	const (
		setOverhead  = 40  // set header + slice header
		slotOverhead = 8   // an instance's per-local set slot
		instOverhead = 160 // instance struct, table and index entries
		ctxOverhead  = 96  // context value, rendering and index entry
	)
	var b int64
	for _, inst := range r.insts {
		b += instOverhead + int64(len(inst.vars))*slotOverhead
		for _, s := range inst.vars {
			if s.d != nil {
				b += int64(s.Words())*8 + setOverhead
			}
		}
		for _, c := range inst.calls {
			b += int64(len(c))*4 + 24
		}
	}
	for _, f := range r.fsets {
		b += int64(f.set.Words())*8 + setOverhead + 32
	}
	for _, s := range r.ssets {
		b += int64(s.set.Words())*8 + setOverhead + 48
	}
	b += int64(len(r.ctx.ctxs)) * ctxOverhead
	b += int64(len(r.entries)) * 4
	return b
}
