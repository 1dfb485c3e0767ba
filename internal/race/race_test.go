package race

import (
	"strings"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/pointer"
	"sierra/internal/shbg"
)

// analyzeApp runs harness → actions → SHBG → accesses → racy pairs.
func analyzeApp(t *testing.T, app *apk.App, pol pointer.Policy) (*actions.Registry, *shbg.Graph, []Access, []Pair) {
	t.Helper()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pol)
	g := shbg.Build(reg, res, shbg.Options{})
	accs := CollectAccesses(reg, res)
	pairs := RacyPairs(reg, g, accs)
	return reg, g, accs, pairs
}

func actionName(reg *actions.Registry, id int) string { return reg.Get(id).Name() }

// pairOn reports whether some pair races on the given field between the
// two named callbacks (order-insensitive).
func pairOn(reg *actions.Registry, pairs []Pair, field, cb1, cb2 string) bool {
	for _, p := range pairs {
		if p.A.Field != field {
			continue
		}
		n1 := reg.Get(p.A.Action).Callback
		n2 := reg.Get(p.B.Action).Callback
		if (n1 == cb1 && n2 == cb2) || (n1 == cb2 && n2 == cb1) {
			return true
		}
	}
	return false
}

func TestFigure1NewsAppRacyPairs(t *testing.T) {
	reg, _, accs, pairs := analyzeApp(t, corpus.NewsApp(), pointer.ActionSensitivePolicy{K: 2})
	if len(accs) == 0 || len(pairs) == 0 {
		t.Fatalf("accesses=%d pairs=%d, want both nonzero", len(accs), len(pairs))
	}
	// The Fig 1 race: background adapter.add (mData write) vs the
	// scroll handler's read through the RecycleView.
	if !pairOn(reg, pairs, "mData", "doInBackground", "onScroll") {
		for _, p := range pairs {
			t.Logf("pair: %s %v vs %s %v on %s",
				actionName(reg, p.A.Action), p.A.Kind, actionName(reg, p.B.Action), p.B.Kind, p.A.Field)
		}
		t.Fatal("missing doInBackground vs onScroll race on mData")
	}
	// The cache flag race: onPostExecute writes mCacheValid, scroll reads.
	if !pairOn(reg, pairs, "mCacheValid", "onPostExecute", "onScroll") {
		t.Error("missing onPostExecute vs onScroll race on mCacheValid")
	}
	// Ordered pair must NOT appear: onCreate writes this.adapter, onClick
	// reads it, but onCreate ≺ onClick.
	if pairOn(reg, pairs, "adapter", "onCreate", "onClick") {
		t.Error("onCreate vs onClick on adapter is HB-ordered; must not be racy")
	}
}

func TestFigure2InterComponentRacyPairs(t *testing.T) {
	reg, _, _, pairs := analyzeApp(t, corpus.DatabaseApp(), pointer.ActionSensitivePolicy{K: 2})
	// onReceive's update (mOpen read) vs onStop's close (mOpen write).
	if !pairOn(reg, pairs, "mOpen", "onReceive", "onStop") {
		for _, p := range pairs {
			t.Logf("pair: %s vs %s on %s", actionName(reg, p.A.Action), actionName(reg, p.B.Action), p.A.Field)
		}
		t.Fatal("missing onReceive vs onStop race on mOpen (Fig 2)")
	}
	// onReceive reads act.mDB; onDestroy nulls it.
	if !pairOn(reg, pairs, "mDB", "onReceive", "onDestroy") {
		t.Error("missing onReceive vs onDestroy race on mDB")
	}
	// Ordered lifecycle accesses must not pair: onCreate writes mDB,
	// onStart reads it, but onCreate ≺ onStart.
	if pairOn(reg, pairs, "mDB", "onCreate", "onStart") {
		t.Error("onCreate vs onStart on mDB is ordered; must not be racy")
	}
}

func TestFigure8SudokuCandidates(t *testing.T) {
	reg, _, _, pairs := analyzeApp(t, corpus.SudokuTimerApp(), pointer.ActionSensitivePolicy{K: 2})
	// Both the guarded mAccumTime pair (later refuted) and the guard
	// variable pair (true race) are candidates at this stage.
	if !pairOn(reg, pairs, "mAccumTime", "run", "onPause") {
		t.Error("missing run vs onPause candidate on mAccumTime")
	}
	if !pairOn(reg, pairs, "mIsRunning", "run", "onPause") {
		t.Error("missing run vs onPause candidate on mIsRunning")
	}
	_ = reg
}

func TestActionSensitivityReducesRacyPairs(t *testing.T) {
	appAS := corpus.NewsApp()
	_, _, _, withAS := analyzeApp(t, appAS, pointer.ActionSensitivePolicy{K: 2})
	appHY := corpus.NewsApp()
	_, _, _, without := analyzeApp(t, appHY, pointer.Hybrid{K: 2})
	if len(without) < len(withAS) {
		t.Errorf("racy pairs: hybrid %d < action-sensitive %d; AS must not add pairs",
			len(without), len(withAS))
	}
}

func TestAccessMetadata(t *testing.T) {
	_, _, accs, _ := analyzeApp(t, corpus.NewsApp(), pointer.ActionSensitivePolicy{K: 2})
	var sawFramework, sawApp, sawRef bool
	for _, a := range accs {
		if a.InFramework {
			sawFramework = true
		} else {
			sawApp = true
		}
		if a.IsRef {
			sawRef = true
		}
		if !a.Static && a.BaseVar == "" {
			t.Errorf("instance access %v missing base var", a)
		}
	}
	if !sawFramework {
		t.Error("no framework accesses collected (adapter internals expected)")
	}
	if !sawApp {
		t.Error("no app accesses collected")
	}
	if !sawRef {
		t.Error("no reference-typed accesses detected (this.adapter expected)")
	}
}

func TestRacyPairsDeterministic(t *testing.T) {
	_, _, _, p1 := analyzeApp(t, corpus.NewsApp(), pointer.ActionSensitivePolicy{K: 2})
	_, _, _, p2 := analyzeApp(t, corpus.NewsApp(), pointer.ActionSensitivePolicy{K: 2})
	if len(p1) != len(p2) {
		t.Fatalf("nondeterministic pair count: %d vs %d", len(p1), len(p2))
	}
	for i := range p1 {
		if p1[i].Key() != p2[i].Key() {
			t.Fatalf("pair %d differs: %s vs %s", i, p1[i].Key(), p2[i].Key())
		}
	}
}

func TestPairKeyAndStrings(t *testing.T) {
	_, _, accs, pairs := analyzeApp(t, corpus.NewsApp(), pointer.ActionSensitivePolicy{K: 2})
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	p := pairs[0]
	if p.A.Action > p.B.Action {
		t.Error("pairs must be canonically ordered")
	}
	if !strings.Contains(p.Key(), "/") {
		t.Errorf("key %q malformed", p.Key())
	}
	for _, a := range accs[:3] {
		if a.String() == "" || a.Location() == "" {
			t.Error("empty render")
		}
	}
}

// TestAnalysisAllocationsTrackInstances guards the allocation cost of
// the points-to fixpoint with action discovery, action attribution and
// access collection on K-9Mail, per reached method instance. Keyed by
// dense ids, the three make ~35 allocations per instance (1,245
// instances); the bound leaves ~20% headroom. Tables keyed by structs
// of strings made ~59.
func TestAnalysisAllocationsTrackInstances(t *testing.T) {
	const bound = 42
	row, _ := corpus.RowByName("K-9Mail")
	app, _ := corpus.NamedApp(row)
	hs := harness.Generate(app)
	insts := 0
	allocs := testing.AllocsPerRun(1, func() {
		reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
		CollectAccesses(reg, res)
		insts = res.NumInstances()
	})
	if per := allocs / float64(insts); per >= bound {
		t.Errorf("K-9Mail: %.0f allocations for %d instances (%.1f per instance), want < %d", allocs, insts, per, bound)
	}
}
