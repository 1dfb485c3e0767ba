// Package symexec implements goal-directed backward symbolic execution
// for race refutation (§5 of the paper). For a candidate racy pair
// ⟨αA, αB⟩ it checks whether a feasible program path witnesses each
// ordering of the two actions; ad-hoc synchronization (guard variables,
// null checks, constant message codes) shows up as contradictory path
// constraints, refuting the pair.
//
// It substitutes for the Thresher/Z3 stack in the paper's toolchain: the
// constraint language covers what the paper's refutations need —
// equality/disequality over booleans, integers, and null-ness, with
// strong updates on singleton points-to sets.
package symexec

import (
	"fmt"
	"sort"
	"strings"

	"sierra/internal/pointer"
)

// valKind discriminates symbolic values.
type valKind int

const (
	vInt valKind = iota
	vBool
	vNull
	vNonNull
)

// value is a concrete constraint operand.
type value struct {
	kind valKind
	i    int64
	b    bool
}

func intVal(i int64) value { return value{kind: vInt, i: i} }
func boolVal(b bool) value { return value{kind: vBool, b: b} }
func nullVal() value       { return value{kind: vNull} }
func nonNullVal() value    { return value{kind: vNonNull} }

func (v value) String() string {
	switch v.kind {
	case vInt:
		return fmt.Sprintf("%d", v.i)
	case vBool:
		return fmt.Sprintf("%t", v.b)
	case vNull:
		return "null"
	default:
		return "nonnull"
	}
}

// equal reports definite equality of two values.
func (a value) equal(b value) bool {
	if a.kind != b.kind {
		return false
	}
	switch a.kind {
	case vInt:
		return a.i == b.i
	case vBool:
		return a.b == b.b
	default:
		return true
	}
}

// conflicts reports that asserting x == a and x == b together is
// unsatisfiable.
func conflicts(a, b value) bool {
	// null vs nonnull conflict; null vs any concrete conflicts.
	if a.kind == vNull && b.kind == vNonNull || a.kind == vNonNull && b.kind == vNull {
		return true
	}
	if a.kind == vNull && (b.kind == vInt || b.kind == vBool) {
		return true
	}
	if b.kind == vNull && (a.kind == vInt || a.kind == vBool) {
		return true
	}
	if a.kind != b.kind {
		return false // incomparable, assume satisfiable
	}
	return !a.equal(b)
}

// constraint is the requirement on one variable or location: an optional
// must-equal value plus must-not-equal values. The must-equal value is
// stored inline (hasEq discriminates) so strengthening a constraint on
// the walk spine never heap-allocates.
type constraint struct {
	eqv   value
	hasEq bool
	ne    []value
}

// withEq returns the constraint strengthened by x == v, and whether the
// result is satisfiable.
func (c constraint) withEq(v value) (constraint, bool) {
	if c.hasEq && conflicts(c.eqv, v) {
		return c, false
	}
	for _, n := range c.ne {
		if v.equal(n) {
			return c, false
		}
		// x != null together with x == nonnull is fine; x != nonnull is
		// not expressible, so only definite equality kills.
	}
	out := c
	if !out.hasEq {
		out.eqv = v
		out.hasEq = true
	}
	return out, true
}

// withNe returns the constraint strengthened by x != v.
func (c constraint) withNe(v value) (constraint, bool) {
	if c.hasEq && c.eqv.equal(v) {
		return c, false
	}
	out := c
	out.ne = append(append([]value(nil), c.ne...), v)
	return out, true
}

// satisfiedBy checks whether assigning val satisfies the constraint.
func (c constraint) satisfiedBy(val value) bool {
	if c.hasEq && conflicts(c.eqv, val) {
		return false
	}
	if c.hasEq && c.eqv.kind != val.kind {
		// e.g. required nonnull, assigned int: int is non-null — allow
		// kind-crossing satisfaction for null-ness.
		if c.eqv.kind == vNonNull && (val.kind == vInt || val.kind == vBool) {
			// fallthrough: satisfied
		} else if c.eqv.kind == vNull {
			return false
		}
	}
	for _, n := range c.ne {
		if val.equal(n) {
			return false
		}
	}
	return true
}

func (c constraint) String() string {
	parts := []string{}
	if c.hasEq {
		parts = append(parts, "=="+c.eqv.String())
	}
	for _, n := range c.ne {
		parts = append(parts, "!="+n.String())
	}
	return strings.Join(parts, ",")
}

// locKey identifies a heap location: an abstract object's field or a
// static field.
type locKey struct {
	obj    pointer.Obj
	field  string
	static bool
	class  string
}

func (l locKey) String() string {
	if l.static {
		return l.class + "." + l.field
	}
	return l.obj.String() + "." + l.field
}

// store is a path-constraint store over variables (frame-qualified) and
// heap locations. The walker mutates one shared store and rolls its
// trail back when the DFS retreats; the clone-walk reference copies the
// store on branch instead (tr stays nil and every mutation is final).
type store struct {
	vars map[string]constraint
	locs map[locKey]constraint
	// tr, when non-nil, records the inverse of every mutation so
	// rollback can restore the store to an earlier mark.
	tr *trail
}

// resetTo overwrites s with init's contents, reusing s's map storage —
// the allocation-free clone the trail walker's scratch store and the
// feasibility check's seed-merge scratch use. Writes bypass the trail
// (callers reset the trail alongside).
func (s *store) resetTo(init *store) {
	if s.vars == nil {
		s.vars = map[string]constraint{}
		s.locs = map[locKey]constraint{}
	}
	clear(s.vars)
	clear(s.locs)
	for k, v := range init.vars {
		s.vars[k] = v
	}
	for k, v := range init.locs {
		s.locs[k] = v
	}
}

// undo is one inverse op on the trail: restore (or re-delete) a single
// var or loc entry.
type undo struct {
	key   string // var name when !isLoc
	lkey  locKey // loc key when isLoc
	old   constraint
	had   bool
	isLoc bool
}

// trail is the mutation log shared by every store the trail walker
// touches within one query; its backing array is reused across walks.
type trail struct {
	ops []undo
}

// mark returns the current trail position for a later rollback.
func (t *trail) mark() int { return len(t.ops) }

// setVar writes a var constraint, logging the displaced state.
func (s *store) setVar(name string, c constraint) {
	if s.tr != nil {
		old, had := s.vars[name]
		s.tr.ops = append(s.tr.ops, undo{key: name, old: old, had: had})
	}
	s.vars[name] = c
}

// delVar removes a var constraint (no-op and no log entry when absent).
func (s *store) delVar(name string) {
	old, had := s.vars[name]
	if !had {
		return
	}
	if s.tr != nil {
		s.tr.ops = append(s.tr.ops, undo{key: name, old: old, had: true})
	}
	delete(s.vars, name)
}

// setLoc writes a loc constraint, logging the displaced state.
func (s *store) setLoc(lk locKey, c constraint) {
	if s.tr != nil {
		old, had := s.locs[lk]
		s.tr.ops = append(s.tr.ops, undo{lkey: lk, old: old, had: had, isLoc: true})
	}
	s.locs[lk] = c
}

// delLoc removes a loc constraint (no-op and no log entry when absent).
func (s *store) delLoc(lk locKey) {
	old, had := s.locs[lk]
	if !had {
		return
	}
	if s.tr != nil {
		s.tr.ops = append(s.tr.ops, undo{lkey: lk, old: old, had: true, isLoc: true})
	}
	delete(s.locs, lk)
}

// rollback undoes every mutation logged after mark, newest first,
// restoring the store to its state when mark was taken.
func (s *store) rollback(mark int) {
	ops := s.tr.ops
	for i := len(ops) - 1; i >= mark; i-- {
		u := &ops[i]
		switch {
		case u.isLoc && u.had:
			s.locs[u.lkey] = u.old
		case u.isLoc:
			delete(s.locs, u.lkey)
		case u.had:
			s.vars[u.key] = u.old
		default:
			delete(s.vars, u.key)
		}
	}
	s.tr.ops = ops[:mark]
}

// key renders a canonical fingerprint. Retained as the readable
// reference the hash/equality pair below is property-tested against;
// the memo hot path uses hash() + storesEqual instead of building
// strings.
func (s *store) key() string {
	parts := make([]string, 0, len(s.vars)+len(s.locs))
	for k, v := range s.vars {
		parts = append(parts, "v:"+k+":"+v.String())
	}
	for k, v := range s.locs {
		parts = append(parts, "l:"+k.String()+":"+v.String())
	}
	sort.Strings(parts)
	return strings.Join(parts, ";")
}

// FNV-1a, accumulated manually so hashing never allocates.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime }

func fnvStr(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

func fnvU64(h uint64, v uint64) uint64 {
	for i := 0; i < 64; i += 8 {
		h = (h ^ (v >> i & 0xff)) * fnvPrime
	}
	return h
}

func hashValue(h uint64, v value) uint64 {
	h = fnvByte(h, byte(v.kind))
	h = fnvU64(h, uint64(v.i))
	if v.b {
		return fnvByte(h, 1)
	}
	return fnvByte(h, 0)
}

func hashConstraint(h uint64, c constraint) uint64 {
	if c.hasEq {
		h = hashValue(fnvByte(h, 1), c.eqv)
	} else {
		h = fnvByte(h, 0)
	}
	for _, n := range c.ne {
		h = hashValue(h, n)
	}
	return h
}

// hash is the order-independent store fingerprint: per-entry FNV-1a
// hashes XORed together, so insertion (= map iteration) order cannot
// matter. Collisions are resolved by the caller with storesEqual —
// hash-then-verify, never hash-and-trust.
func (s *store) hash() uint64 {
	var acc uint64
	for k, c := range s.vars {
		acc ^= hashConstraint(fnvStr(fnvByte(fnvOffset, 'v'), k), c)
	}
	for lk, c := range s.locs {
		h := fnvByte(fnvOffset, 'l')
		h = fnvU64(h, uint64(int64(lk.obj.Site)))
		h = fnvStr(h, lk.obj.Ctx)
		h = fnvU64(h, uint64(int64(lk.obj.ViewID)))
		h = fnvStr(h, lk.obj.Class)
		h = fnvStr(h, lk.field)
		if lk.static {
			h = fnvByte(h, 1)
		} else {
			h = fnvByte(h, 0)
		}
		h = fnvStr(h, lk.class)
		acc ^= hashConstraint(h, c)
	}
	return acc
}

// constraintsEqual is structural identity: same eq presence and value,
// same ne sequence in order — exactly the equivalence the rendered
// key() strings induced, so the hash-based dedup partitions stores the
// way the string-based one did.
func constraintsEqual(a, b constraint) bool {
	if a.hasEq != b.hasEq {
		return false
	}
	if a.hasEq && a.eqv != b.eqv {
		return false
	}
	if len(a.ne) != len(b.ne) {
		return false
	}
	for i := range a.ne {
		if a.ne[i] != b.ne[i] {
			return false
		}
	}
	return true
}

// storesEqual reports structural equality of two stores.
func storesEqual(a, b *store) bool {
	if len(a.vars) != len(b.vars) || len(a.locs) != len(b.locs) {
		return false
	}
	for k, ca := range a.vars {
		cb, ok := b.vars[k]
		if !ok || !constraintsEqual(ca, cb) {
			return false
		}
	}
	for k, ca := range a.locs {
		cb, ok := b.locs[k]
		if !ok || !constraintsEqual(ca, cb) {
			return false
		}
	}
	return true
}

func (s *store) empty() bool { return len(s.vars) == 0 && len(s.locs) == 0 }

// constrainVarEq asserts var == v, reporting satisfiability.
func (s *store) constrainVarEq(name string, v value) bool {
	c, ok := s.vars[name].withEq(v)
	if !ok {
		return false
	}
	s.setVar(name, c)
	return true
}

// constrainVarNe asserts var != v.
func (s *store) constrainVarNe(name string, v value) bool {
	c, ok := s.vars[name].withNe(v)
	if !ok {
		return false
	}
	s.setVar(name, c)
	return true
}
