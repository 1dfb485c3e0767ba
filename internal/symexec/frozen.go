package symexec

import "unsafe"

// Arena-backed frozen stores. Every constraint store a refuter retains
// across queries — what-seed stores, memoized A-walk entry stores,
// witness-memo keys — is immutable once recorded. Cloning each into a
// fresh map-backed store was the dominant allocation source of the
// refutation kernel, so retained stores are instead *frozen* into flat
// entry slices carved from per-refuter bump slabs: one slab chunk per
// few hundred entries instead of three heap objects per clone.
//
// A frozen store's entry order is whatever map iteration produced at
// freeze time; that is safe because every consumer is order-independent:
// resetTo-style hydration writes distinct keys, mergeStores-style
// conjunction is a per-key AND whose satisfiability verdict cannot
// depend on entry order, the hash is an order-independent XOR (the same
// fingerprint store.hash computes), and equality is lookup-based. The ne
// slices are aliased, not copied — live stores never mutate an ne slice
// in place (withNe copies), so sharing is sound.
//
// Lifetime: frozen stores live exactly as long as the memo tables that
// reference them. storeArena.reset invalidates everything at once; the
// parallel pool resets a worker's arena together with its memos between
// pairs (see Refuter.resetPair), so no dangling references can survive.

// varEntry and locEntry are the flat forms of one store map entry.
type varEntry struct {
	name string
	c    constraint
}

type locEntry struct {
	lk locKey
	c  constraint
}

// frozen is an immutable snapshot of a store, with its dedup hash
// computed once at freeze time.
type frozen struct {
	vars []varEntry
	locs []locEntry
	h    uint64
}

// storeArena bump-allocates frozen stores and their entries, plus the
// other per-query slab-lived records (entry results, witness buckets,
// frozen-pointer lists), in chunks. reset recycles every chunk.
type storeArena struct {
	frozens  []frozen
	vars     []varEntry
	locs     []locEntry
	ptrs     []*frozen
	results  []entryResult
	wbuckets []wbucket
	bytes    int64
}

const storeArenaChunk = 256

// Per-record sizes for the arena's bytes accounting (the
// symexec.arena_bytes counter).
const (
	frozenSize      = int64(unsafe.Sizeof(frozen{}))
	varEntrySize    = int64(unsafe.Sizeof(varEntry{}))
	locEntrySize    = int64(unsafe.Sizeof(locEntry{}))
	entryResultSize = int64(unsafe.Sizeof(entryResult{}))
	wbucketSize     = int64(unsafe.Sizeof(wbucket{}))
)

// emptyFrozen is the frozen form of the empty store (resetToFrozen
// target for scratch clearing).
var emptyFrozen frozen

// grow returns a slice with free capacity for n more elements, starting
// a fresh chunk when the current one is full (older chunks stay alive
// through the pointers already handed out).
func growChunk[T any](chunk []T, n int) []T {
	if cap(chunk)-len(chunk) < n {
		size := storeArenaChunk
		if n > size {
			size = n
		}
		return make([]T, 0, size)
	}
	return chunk
}

func (a *storeArena) newFrozen() *frozen {
	a.frozens = growChunk(a.frozens, 1)
	a.frozens = append(a.frozens, frozen{})
	a.bytes += int64(frozenSize)
	return &a.frozens[len(a.frozens)-1]
}

func (a *storeArena) newResult() *entryResult {
	a.results = growChunk(a.results, 1)
	a.results = append(a.results, entryResult{})
	a.bytes += int64(entryResultSize)
	return &a.results[len(a.results)-1]
}

func (a *storeArena) newWBucket() *wbucket {
	a.wbuckets = growChunk(a.wbuckets, 1)
	a.wbuckets = append(a.wbuckets, wbucket{})
	a.bytes += int64(wbucketSize)
	return &a.wbuckets[len(a.wbuckets)-1]
}

// freezePtrs copies a scratch pointer list into the arena, returning a
// right-sized view the caller may retain.
func (a *storeArena) freezePtrs(src []*frozen) []*frozen {
	if len(src) == 0 {
		return nil
	}
	a.ptrs = growChunk(a.ptrs, len(src))
	start := len(a.ptrs)
	a.ptrs = append(a.ptrs, src...)
	a.bytes += int64(len(src)) * 8
	return a.ptrs[start:len(a.ptrs):len(a.ptrs)]
}

// freeze snapshots a live store into the arena under a precomputed
// hash (callers have always just hashed the store for dedup).
func (a *storeArena) freeze(s *store, h uint64) *frozen {
	fz := a.newFrozen()
	fz.h = h
	if n := len(s.vars); n > 0 {
		a.vars = growChunk(a.vars, n)
		start := len(a.vars)
		for name, c := range s.vars {
			a.vars = append(a.vars, varEntry{name: name, c: c})
		}
		a.bytes += int64(n) * int64(varEntrySize)
		fz.vars = a.vars[start:len(a.vars):len(a.vars)]
	}
	if n := len(s.locs); n > 0 {
		a.locs = growChunk(a.locs, n)
		start := len(a.locs)
		for lk, c := range s.locs {
			a.locs = append(a.locs, locEntry{lk: lk, c: c})
		}
		a.bytes += int64(n) * int64(locEntrySize)
		fz.locs = a.locs[start:len(a.locs):len(a.locs)]
	}
	return fz
}

// reset truncates every slab for reuse. All frozen stores handed out
// since the last reset are invalidated.
func (a *storeArena) reset() {
	a.frozens = a.frozens[:0]
	a.vars = a.vars[:0]
	a.locs = a.locs[:0]
	a.ptrs = a.ptrs[:0]
	a.results = a.results[:0]
	a.wbuckets = a.wbuckets[:0]
}

// equalsStore reports structural equality with a live store — the same
// partition storesEqual induces, so memo hit/miss decisions are
// unchanged by freezing.
func (fz *frozen) equalsStore(s *store) bool {
	if len(fz.vars) != len(s.vars) || len(fz.locs) != len(s.locs) {
		return false
	}
	for i := range fz.vars {
		c, ok := s.vars[fz.vars[i].name]
		if !ok || !constraintsEqual(fz.vars[i].c, c) {
			return false
		}
	}
	for i := range fz.locs {
		c, ok := s.locs[fz.locs[i].lk]
		if !ok || !constraintsEqual(fz.locs[i].c, c) {
			return false
		}
	}
	return true
}

// resetToFrozen overwrites s with fz's contents, reusing s's map
// storage — the frozen twin of resetTo. Writes bypass the trail.
func (s *store) resetToFrozen(fz *frozen) {
	if s.vars == nil {
		s.vars = map[string]constraint{}
		s.locs = map[locKey]constraint{}
	}
	clear(s.vars)
	clear(s.locs)
	for i := range fz.vars {
		s.vars[fz.vars[i].name] = fz.vars[i].c
	}
	for i := range fz.locs {
		s.locs[fz.locs[i].lk] = fz.locs[i].c
	}
}

// mergeFrozen conjoins fz's constraints into dst, reporting
// satisfiability — the frozen twin of mergeStores. Per-key conjunction
// commutes across distinct keys, so entry order cannot change the
// verdict or the resulting store.
func mergeFrozen(dst *store, fz *frozen) bool {
	for i := range fz.vars {
		if !mergeVar(dst, fz.vars[i].name, fz.vars[i].c) {
			return false
		}
	}
	for i := range fz.locs {
		if !mergeLoc(dst, fz.locs[i].lk, fz.locs[i].c) {
			return false
		}
	}
	return true
}
