package pointer

import (
	"sort"
	"sync"

	"sierra/internal/ir"
)

// Result holds the points-to sets and the context-sensitive call graph
// produced by Analyze.
type Result struct {
	Policy Policy
	// Interrupted marks that the fixpoint stopped early because the
	// configured context was cancelled: every recorded fact is real, but
	// the call graph and points-to sets may be incomplete.
	Interrupted bool

	in        *Interner
	pts       map[VarKey]ObjSet
	fpts      map[FieldKey]ObjSet
	spts      map[string]ObjSet
	instances map[MKey]bool
	// byMethod indexes instances by method in discovery order, kept
	// current by every install (warm re-solves included), so per-method
	// queries and the solver's seed propagation never scan all instances.
	byMethod  map[*ir.Method][]MKey
	callees   map[siteKey][]MKey
	entryKeys []MKey
	passes    int

	// cmOnce/cmByPos back CalleeMethods: the context-insensitive
	// pos → sorted-methods view is a pure function of the (immutable)
	// callee map, computed once per Result and shared read-only.
	cmOnce  sync.Once
	cmByPos map[ir.Pos][]*ir.Method
}

// NewObjSet returns an empty mutable set in this result's dense-id
// space — the constructor downstream consumers (race, symexec) use to
// union points-to sets word-parallel.
func (r *Result) NewObjSet() ObjSet { return r.in.NewSet() }

// Interner exposes the result's id space (for equivalence tests and
// diagnostics).
func (r *Result) Interner() *Interner { return r.in }

// PointsTo returns the points-to set of variable v in method m under ctx
// (nil-safe: missing keys yield an empty set).
func (r *Result) PointsTo(m *ir.Method, ctx Context, v string) ObjSet {
	return r.pts[VarKey{M: m, Ctx: ctx, Var: v}]
}

// PointsToAll unions v's points-to sets across every context of m.
func (r *Result) PointsToAll(m *ir.Method, v string) ObjSet {
	out := r.in.NewSet()
	for _, mk := range r.byMethod[m] {
		out.AddAll(r.pts[VarKey{M: m, Ctx: mk.Ctx, Var: v}])
	}
	return out
}

// FieldPointsTo returns what obj.field may point to.
func (r *Result) FieldPointsTo(obj Obj, field string) ObjSet {
	return r.fpts[FieldKey{Obj: obj, Field: field}]
}

// StaticPointsTo returns what the static field cls.field may point to.
func (r *Result) StaticPointsTo(cls, field string) ObjSet {
	return r.spts[cls+"."+field]
}

// Instances returns every discovered method instance, sorted.
func (r *Result) Instances() []MKey {
	out := make([]MKey, 0, len(r.instances))
	for mk := range r.instances {
		out = append(out, mk)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// InstancesOf returns the discovered instances of one method, sorted.
func (r *Result) InstancesOf(m *ir.Method) []MKey {
	out := append([]MKey(nil), r.byMethod[m]...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// NumInstances reports the call-graph node count.
func (r *Result) NumInstances() int { return len(r.instances) }

// Entries returns the root instances (analysis entrypoints, including
// action roots installed by the OnEvent hook).
func (r *Result) Entries() []MKey { return r.entryKeys }

// CalleesAt returns the callee instances of the call at pos inside the
// caller instance.
func (r *Result) CalleesAt(caller MKey, pos ir.Pos) []MKey {
	return r.callees[siteKey{Caller: caller, Pos: pos}]
}

// ReachableFrom returns the instance set reachable from the given roots
// over call edges (roots included).
func (r *Result) ReachableFrom(roots ...MKey) map[MKey]bool {
	seen := make(map[MKey]bool)
	var work []MKey
	for _, root := range roots {
		if r.instances[root] && !seen[root] {
			seen[root] = true
			work = append(work, root)
		}
	}
	for len(work) > 0 {
		mk := work[len(work)-1]
		work = work[:len(work)-1]
		for _, blk := range mk.M.Blocks {
			for _, s := range blk.Stmts {
				if _, ok := s.(*ir.Invoke); !ok {
					continue
				}
				for _, callee := range r.callees[siteKey{Caller: mk, Pos: s.Pos()}] {
					if !seen[callee] {
						seen[callee] = true
						work = append(work, callee)
					}
				}
			}
		}
	}
	return seen
}

// Passes reports how many global fixpoint passes the analysis took.
func (r *Result) Passes() int { return r.passes }

// CalleeMethods flattens CalleesAt to methods — the shape the ICFG
// needs. The pos → sorted-methods view is computed once per Result
// (every refuter built over the same analysis shares it read-only).
func (r *Result) CalleeMethods() func(ir.Pos) []*ir.Method {
	r.cmOnce.Do(func() {
		// Precompute: pos -> methods (context-insensitively joined).
		byPos := make(map[ir.Pos]map[*ir.Method]bool)
		for sk, callees := range r.callees {
			set := byPos[sk.Pos]
			if set == nil {
				set = make(map[*ir.Method]bool)
				byPos[sk.Pos] = set
			}
			for _, c := range callees {
				set[c.M] = true
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
// every points-to set plus flat per-entry overhead for the index maps
// and the call graph. It deliberately overcounts a little (map buckets,
// interner strings) rather than undercount — the serve baseline pool
// uses it as an eviction budget, where "approximately right and stable"
// beats exact.
func (r *Result) ApproxBytes() int64 {
	const entryOverhead = 96 // map bucket share + key + ObjSet header
	var b int64
	for _, s := range r.pts {
		b += int64(s.Words())*8 + entryOverhead
	}
	for _, s := range r.fpts {
		b += int64(s.Words())*8 + entryOverhead
	}
	for _, s := range r.spts {
		b += int64(s.Words())*8 + entryOverhead
	}
	b += int64(len(r.instances)) * 64
	for _, c := range r.callees {
		b += int64(len(c))*24 + 64
	}
	b += int64(len(r.entryKeys)) * 24
	return b
}
