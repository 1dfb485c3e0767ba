// Package bitset is the dense-ID substrate shared by the pipeline's
// hottest kernels: a word-packed set of small non-negative integers.
// The pointer analysis stores interned-object ids in it (pointer.ObjSet),
// and the SHBG keeps one Set per action as its happens-before row, so
// set union, intersection tests, and transitive-closure propagation all
// run word-parallel (64 elements per machine op) instead of per-element
// through map or [][]bool indirections.
package bitset

import "math/bits"

// Set is a word-packed bitset. The zero value is an empty set; Add and
// Or grow it as needed. Sets are append-only views over their word
// slice: copy a Set header freely, but share mutation through a single
// owner (the pointer analysis wraps Set behind a shared pointer).
type Set []uint64

// wordsFor returns the word count needed to hold bit i.
func wordsFor(i int) int { return i/64 + 1 }

// New returns a set pre-sized to hold bits [0, nbits).
func New(nbits int) Set {
	if nbits <= 0 {
		return nil
	}
	return make(Set, wordsFor(nbits-1))
}

// Add sets bit i (growing the set), reporting whether it was newly set.
func (s *Set) Add(i int) bool {
	if i < 0 {
		return false
	}
	w := i >> 6
	if w >= len(*s) {
		s.grow(w + 1)
	}
	mask := uint64(1) << (uint(i) & 63)
	if (*s)[w]&mask != 0 {
		return false
	}
	(*s)[w] |= mask
	return true
}

// grow extends s to n zeroed-tail words. A reallocation reserves room
// for twice the old capacity, so a set filled in ascending order
// reallocates O(log n) times, not once per word.
func (s *Set) grow(n int) {
	if n <= cap(*s) {
		old := len(*s)
		*s = (*s)[:n]
		clear((*s)[old:])
		return
	}
	grown := make(Set, n, max(n, 2*cap(*s)))
	copy(grown, *s)
	*s = grown
}

// Clear unsets bit i (no-op for out-of-range i; the set never shrinks).
func (s Set) Clear(i int) {
	if i < 0 {
		return
	}
	w := i >> 6
	if w < len(s) {
		s[w] &^= 1 << (uint(i) & 63)
	}
}

// Has reports whether bit i is set (false for out-of-range i — the
// bounds check the callers rely on).
func (s Set) Has(i int) bool {
	if i < 0 {
		return false
	}
	w := i >> 6
	return w < len(s) && s[w]&(1<<(uint(i)&63)) != 0
}

// Or unions other into s word-parallel, returning how many bits were
// newly set (0 = no change).
func (s *Set) Or(other Set) int {
	if len(other) > len(*s) {
		// Trim other's trailing zero words before growing.
		n := len(other)
		for n > 0 && other[n-1] == 0 {
			n--
		}
		if n > len(*s) {
			s.grow(n)
		}
	}
	dst := *s
	added := 0
	n := len(other)
	if n > len(dst) {
		n = len(dst)
	}
	for w := 0; w < n; w++ {
		diff := other[w] &^ dst[w]
		if diff != 0 {
			dst[w] |= diff
			added += bits.OnesCount64(diff)
		}
	}
	return added
}

// Intersects reports whether the sets share a bit — one AND per word.
func (s Set) Intersects(other Set) bool {
	n := len(s)
	if len(other) < n {
		n = len(other)
	}
	for w := 0; w < n; w++ {
		if s[w]&other[w] != 0 {
			return true
		}
	}
	return false
}

// Single returns the sole set bit when the set has exactly one element
// (the strong-update test the refuter's Load/Store transfers make per
// visit — this avoids materializing a slice just to read one id).
func (s Set) Single() (int, bool) {
	idx := -1
	for w, word := range s {
		if word == 0 {
			continue
		}
		if idx >= 0 || word&(word-1) != 0 {
			return -1, false
		}
		idx = w<<6 + bits.TrailingZeros64(word)
	}
	if idx < 0 {
		return -1, false
	}
	return idx, true
}

// Count returns the number of set bits.
func (s Set) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Words reports the backing word count (the pointer.objset_words
// gauge's unit).
func (s Set) Words() int { return len(s) }

// ForEach calls fn for every set bit in ascending order.
func (s Set) ForEach(fn func(i int)) {
	for w, word := range s {
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// AppendBits appends the set bits in ascending order to dst and returns
// it (an allocation-free ForEach for callers that reuse a scratch
// slice).
func (s Set) AppendBits(dst []int) []int {
	for w, word := range s {
		for word != 0 {
			dst = append(dst, w<<6+bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
	return dst
}

// TakeDelta is the difference-propagation primitive: it appends the bits
// set in s but absent from prev to dst (ascending), marks them in prev
// (growing prev as needed), and returns dst. After the call prev ⊇ s, so
// the next TakeDelta against the same prev yields only bits added to s
// in between.
func (s Set) TakeDelta(prev *Set, dst []int) []int {
	if len(s) > len(*prev) {
		// Trim s's trailing zero words before growing prev.
		n := len(s)
		for n > 0 && s[n-1] == 0 {
			n--
		}
		if n > len(*prev) {
			prev.grow(n)
		}
	}
	p := *prev
	n := len(s)
	if len(p) < n {
		n = len(p)
	}
	for w := 0; w < n; w++ {
		diff := s[w] &^ p[w]
		if diff == 0 {
			continue
		}
		p[w] |= diff
		for diff != 0 {
			dst = append(dst, w<<6+bits.TrailingZeros64(diff))
			diff &= diff - 1
		}
	}
	return dst
}

// ForEachNew calls fn for every bit set in s but not in prev, ascending
// — TakeDelta's read-only sibling (prev is left untouched).
func (s Set) ForEachNew(prev Set, fn func(i int)) {
	for w, word := range s {
		if w < len(prev) {
			word &^= prev[w]
		}
		for word != 0 {
			fn(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
		}
	}
}

// CopyFrom overwrites s with other's contents, reusing s's backing array
// when it is large enough.
func (s *Set) CopyFrom(other Set) {
	if cap(*s) < len(other) {
		*s = make(Set, len(other))
	} else {
		*s = (*s)[:len(other)]
	}
	copy(*s, other)
}
