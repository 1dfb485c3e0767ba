// Package pointer implements a flow-insensitive, context-sensitive
// inclusion-based (Andersen-style) points-to analysis over the IR, with
// on-the-fly call-graph construction.
//
// It substitutes for WALA's pointer analysis in the paper's toolchain and
// adds the paper's contribution on top: a pluggable context policy
// including the novel action-sensitive abstraction (§3.3) and the
// InflatedViewContext for findViewById-returned views.
package pointer

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"sierra/internal/bitset"
	"sierra/internal/ir"
)

// Obj is an abstract heap object.
type Obj struct {
	// Site is the allocation-site id, or a negative tag for special
	// objects: SiteView for inflated views, SiteMainLooper for the main
	// thread's looper.
	Site int
	// Ctx is the heap context chosen by the policy at allocation.
	Ctx string
	// ViewID is the layout resource id for inflated views (Site ==
	// SiteView). Two views with the same id are the same object no
	// matter where findViewById was called — the InflatedViewContext.
	ViewID int
	// Class is the object's dynamic class.
	Class string
}

// Special Site tags.
const (
	// SiteView marks inflated view objects keyed by ViewID.
	SiteView = -1
	// SiteMainLooper is the singleton main-thread looper.
	SiteMainLooper = -2
)

// ViewObj constructs the abstract object for an inflated view.
func ViewObj(id int, class string) Obj {
	return Obj{Site: SiteView, ViewID: id, Class: class}
}

// MainLooperObj is the singleton abstract object for the main looper.
func MainLooperObj(looperClass string) Obj {
	return Obj{Site: SiteMainLooper, Class: looperClass}
}

// IsView reports whether the object is an inflated view.
func (o Obj) IsView() bool { return o.Site == SiteView }

func (o Obj) String() string {
	switch o.Site {
	case SiteView:
		return fmt.Sprintf("view#%d(%s)", o.ViewID, o.Class)
	case SiteMainLooper:
		return "main-looper"
	default:
		if o.Ctx == "" {
			return fmt.Sprintf("o%d(%s)", o.Site, o.Class)
		}
		return fmt.Sprintf("o%d[%s](%s)", o.Site, o.Ctx, o.Class)
	}
}

// id returns the object-identity element used in k-obj context strings.
func (o Obj) id() string {
	if o.Site == SiteView {
		return fmt.Sprintf("v%d", o.ViewID)
	}
	return fmt.Sprintf("%d", o.Site)
}

// Context is a method-analysis context: the action the code runs in (for
// action-sensitive policies; NoAction otherwise), the k-obj receiver
// chain, and the k-cfa call string.
type Context struct {
	Action int
	Objs   string
	Calls  string
}

// NoAction is the Action value of contexts outside any action (or under
// non-action-sensitive policies).
const NoAction = -1

// EmptyContext is the root context.
var EmptyContext = Context{Action: NoAction}

func (c Context) String() string {
	if c.Action == NoAction && c.Objs == "" && c.Calls == "" {
		return "ε"
	}
	// Manual rendering: this is the sort key for copy-edge ordering, so
	// it runs once per discovered variable and must not pay fmt overhead.
	var b strings.Builder
	if c.Action != NoAction {
		b.WriteByte('A')
		b.WriteString(strconv.Itoa(c.Action))
	}
	if c.Objs != "" {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteString("o:")
		b.WriteString(c.Objs)
	}
	if c.Calls != "" {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteString("c:")
		b.WriteString(c.Calls)
	}
	return b.String()
}

// push prepends elem to a comma-joined bounded string, keeping at most k
// elements — the k-limiting all context policies share.
func push(chain, elem string, k int) string {
	if k <= 0 {
		return ""
	}
	if chain == "" {
		return elem
	}
	parts := strings.SplitN(chain, ",", k)
	if len(parts) >= k {
		parts = parts[:k-1]
	}
	if len(parts) == 0 {
		return elem
	}
	return elem + "," + strings.Join(parts, ",")
}

// ObjSet is a set of abstract objects, represented as a word-packed
// bitset of interner-dense ids. The zero value is a read-only empty
// set (Len/Slice/Contains/Intersects work, mutation needs a set from
// Interner.NewSet or Result.NewObjSet). Copies of an ObjSet alias the
// same backing storage, like the map representation it replaced.
type ObjSet struct {
	d *objsetData
}

// Add inserts o, reporting whether it was new.
func (s ObjSet) Add(o Obj) bool {
	if s.d.bits.Add(int(s.d.in.Intern(o))) {
		s.d.ver++
		return true
	}
	return false
}

// addID inserts the object with interned id, reporting whether it was
// new.
func (s ObjSet) addID(id uint32) bool {
	if s.d.bits.Add(int(id)) {
		s.d.ver++
		return true
	}
	return false
}

// AddAll inserts all of other, reporting whether anything was new. When
// both sets share an id space (always, within one analysis) this is a
// word-parallel union with no hashing.
func (s ObjSet) AddAll(other ObjSet) bool {
	if other.d == nil {
		return false
	}
	if s.d.in == other.d.in {
		if s.d.bits.Or(other.d.bits) > 0 {
			s.d.ver++
			return true
		}
		return false
	}
	// Cross-analysis union (never on the hot path): re-intern.
	changed := false
	for _, o := range other.Slice() {
		if s.Add(o) {
			changed = true
		}
	}
	return changed
}

// version returns the set's growth counter (0 for the zero-value set).
// Two reads returning the same version bracket a window in which the set
// did not grow — the delta solver's cheap "did my input change" test.
func (s ObjSet) version() uint32 {
	if s.d == nil {
		return 0
	}
	return s.d.ver
}

// bits exposes the backing bitset for in-package delta iteration (nil
// for the zero-value set).
func (s ObjSet) bits() bitset.Set {
	if s.d == nil {
		return nil
	}
	return s.d.bits
}

// takeDelta appends the interned ids present in s but not yet in prev to
// dst, marks them in prev, and returns dst (see bitset.TakeDelta).
func (s ObjSet) takeDelta(prev *bitset.Set, dst []int) []int {
	if s.d == nil {
		return dst
	}
	return s.d.bits.TakeDelta(prev, dst)
}

// Contains reports membership.
func (s ObjSet) Contains(o Obj) bool {
	if s.d == nil {
		return false
	}
	id, ok := s.d.in.lookup(o)
	return ok && s.d.bits.Has(int(id))
}

// Intersects reports whether the sets share an element — one AND per
// word when the sets share an id space.
func (s ObjSet) Intersects(other ObjSet) bool {
	if s.d == nil || other.d == nil {
		return false
	}
	if s.d.in == other.d.in {
		return s.d.bits.Intersects(other.d.bits)
	}
	for _, o := range s.Slice() {
		if other.Contains(o) {
			return true
		}
	}
	return false
}

// Len returns the set's cardinality.
func (s ObjSet) Len() int {
	if s.d == nil {
		return 0
	}
	return s.d.bits.Count()
}

// Words reports the backing word count (the pointer.objset_words
// counter's unit; 64 ids per word).
func (s ObjSet) Words() int {
	if s.d == nil {
		return 0
	}
	return s.d.bits.Words()
}

// Single returns the set's sole object when it has exactly one —
// the singleton strong-update test, without the Slice allocation.
func (s ObjSet) Single() (Obj, bool) {
	if s.d == nil {
		return Obj{}, false
	}
	id, ok := s.d.bits.Single()
	if !ok {
		return Obj{}, false
	}
	return s.d.in.snapshot()[id], true
}

// Any reports whether fn holds for some object of the set. It visits
// objects in id order (not Slice's canonical order), stops at the first
// hit, and allocates nothing.
func (s ObjSet) Any(fn func(Obj) bool) bool {
	if s.d == nil {
		return false
	}
	objs := s.d.in.snapshot()
	for w, word := range s.d.bits {
		for word != 0 {
			if fn(objs[w<<6+bits.TrailingZeros64(word)]) {
				return true
			}
			word &= word - 1
		}
	}
	return false
}

// AppendIDs appends the set's dense ids, ascending, to dst and returns
// it. Ids index one id space: two sets' ids compare only when both come
// from the same analysis (as every set of one Result does).
func (s ObjSet) AppendIDs(dst []int) []int {
	if s.d == nil {
		return dst
	}
	return s.d.bits.AppendBits(dst)
}

// Slice returns the objects in deterministic order (the same
// site/view/ctx/class order the map representation produced, so
// downstream event firing and action numbering are unchanged).
func (s ObjSet) Slice() []Obj {
	if s.d == nil {
		return nil
	}
	objs := s.d.in.snapshot()
	out := make([]Obj, 0, s.d.bits.Count())
	s.d.bits.ForEach(func(id int) {
		out = append(out, objs[id])
	})
	sortObjs(out)
	return out
}

// lessObj is the canonical object order (site/view/ctx/class) that
// Slice and the delta solver's new-receiver iteration share, so the
// solver binds dispatch targets in the same sequence as the exhaustive
// test reference.
func lessObj(a, b Obj) bool {
	if a.Site != b.Site {
		return a.Site < b.Site
	}
	if a.ViewID != b.ViewID {
		return a.ViewID < b.ViewID
	}
	if a.Ctx != b.Ctx {
		return a.Ctx < b.Ctx
	}
	return a.Class < b.Class
}

// sortObjs sorts objects into the canonical lessObj order.
func sortObjs(objs []Obj) {
	sort.Slice(objs, func(i, j int) bool { return lessObj(objs[i], objs[j]) })
}

func (s ObjSet) String() string {
	parts := make([]string, 0, s.Len())
	for _, o := range s.Slice() {
		parts = append(parts, o.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// VarKey identifies a context-sensitive variable.
type VarKey struct {
	M   *ir.Method
	Ctx Context
	Var string
}

// MKey identifies a method instance (a call-graph node).
type MKey struct {
	M   *ir.Method
	Ctx Context
}

func (k MKey) String() string {
	return k.M.QualifiedName() + "<" + k.Ctx.String() + ">"
}

// retVar is the synthetic local holding a method's return value.
const retVar = "$ret"
