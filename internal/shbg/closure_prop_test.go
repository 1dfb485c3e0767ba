package shbg

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sierra/internal/bitset"
	"sierra/internal/corpus"
)

// newBareGraph builds a Graph with n nodes and no registry — enough to
// drive addEdge/close/HB directly in kernel tests.
func newBareGraph(n int) *Graph {
	return &Graph{
		n:      n,
		hb:     make([]bitset.Set, n),
		rev:    make([]bitset.Set, n),
		inWork: make([]bool, n),
	}
}

// naiveClosure is the reference the bitset worklist replaced: a dense
// Floyd–Warshall sweep over a bool matrix.
func naiveClosure(n int, edges [][2]int) [][]bool {
	hb := make([][]bool, n)
	for i := range hb {
		hb[i] = make([]bool, n)
	}
	for _, e := range edges {
		if e[0] != e[1] {
			hb[e[0]][e[1]] = true
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if !hb[i][k] {
				continue
			}
			for j := 0; j < n; j++ {
				if hb[k][j] && i != j {
					hb[i][j] = true
				}
			}
		}
	}
	return hb
}

// requireRevConsistent checks hb/rev lockstep: later rule rounds (and
// RacyPairs' predecessor scans) depend on the index being exact.
func requireRevConsistent(t *testing.T, g *Graph) {
	t.Helper()
	for i := 0; i < g.n; i++ {
		g.hb[i].ForEach(func(j int) {
			if !g.rev[j].Has(i) {
				t.Fatalf("rev[%d] missing predecessor %d", j, i)
			}
		})
		g.rev[i].ForEach(func(j int) {
			if !g.hb[j].Has(i) {
				t.Fatalf("rev[%d] has stale predecessor %d", i, j)
			}
		})
	}
}

// TestClosureMatchesNaiveReference drives the worklist closure and the
// dense bool-matrix Floyd–Warshall over the same random edge sets —
// including multi-batch insertion with close() between batches, the
// shape Build's rule-6/7 loop produces — and requires the identical
// relation, edge count, transitive-edge tally, and a consistent
// predecessor index.
func TestClosureMatchesNaiveReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(70) // spans the one-word/multi-word row boundary
		nedges := rng.Intn(3 * n)
		edges := make([][2]int, 0, nedges)
		for i := 0; i < nedges; i++ {
			edges = append(edges, [2]int{rng.Intn(n), rng.Intn(n)})
		}

		g := newBareGraph(n)
		direct := 0
		// Insert in batches with a close() drain between them, like the
		// iterated rule-6/7 loop: later batches must re-open settled rows.
		cut := rng.Intn(len(edges) + 1)
		for i, e := range edges {
			if i == cut {
				g.close()
			}
			if g.addEdge(e[0], e[1], RuleInvocation) {
				direct++
			}
		}
		g.close()

		want := naiveClosure(n, edges)
		closed := 0
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if g.HB(i, j) != want[i][j] {
					t.Logf("seed %d: HB(%d,%d)=%v, naive=%v", seed, i, j, g.HB(i, j), want[i][j])
					return false
				}
				if want[i][j] {
					closed++
				}
			}
		}
		if g.NumEdges() != closed {
			return false
		}
		requireRevConsistent(t, g)
		// Every closed edge is either direct or tallied as transitive.
		return g.RuleCount(RuleTransitive) == closed-direct
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestClosureIdempotent re-draining an already-closed graph must report
// no change and add no edges.
func TestClosureIdempotent(t *testing.T) {
	g := newBareGraph(8)
	for _, e := range [][2]int{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 0}} {
		g.addEdge(e[0], e[1], RuleInvocation)
	}
	g.close()
	before := g.NumEdges()
	if g.close() {
		t.Error("second close() reported change on a closed graph")
	}
	if g.NumEdges() != before {
		t.Errorf("second close() changed edges: %d -> %d", before, g.NumEdges())
	}
}

// TestHBOrderedBoundsSafe out-of-range action ids must answer false,
// not panic — callers pass raw pair ids that can outlive a registry.
func TestHBOrderedBoundsSafe(t *testing.T) {
	reg, g := pipeline(t, corpus.SudokuTimerApp())
	n := reg.NumActions()
	for _, pair := range [][2]int{{-1, 0}, {0, -1}, {n, 0}, {0, n}, {n + 100, n + 200}, {-5, -7}} {
		if g.HB(pair[0], pair[1]) {
			t.Errorf("HB(%d,%d) = true for out-of-range id", pair[0], pair[1])
		}
		if g.Ordered(pair[0], pair[1]) {
			t.Errorf("Ordered(%d,%d) = true for out-of-range id", pair[0], pair[1])
		}
	}
	// addEdge must reject out-of-range ids rather than corrupt rows.
	bare := newBareGraph(3)
	for _, pair := range [][2]int{{-1, 0}, {0, 3}, {3, 0}, {1, 1}} {
		if bare.addEdge(pair[0], pair[1], RuleInvocation) {
			t.Errorf("addEdge(%d,%d) accepted an invalid edge", pair[0], pair[1])
		}
	}
	if bare.NumEdges() != 0 {
		t.Errorf("invalid edges left %d edges behind", bare.NumEdges())
	}
}
