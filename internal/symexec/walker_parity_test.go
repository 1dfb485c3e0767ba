package symexec

import (
	"reflect"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/obs"
)

// parityApps is the corpus the trail-vs-clone parity property runs
// over: every refutation fixture the unit tests exercise, covering
// guard refutations, surviving races, null checks, and message-code
// constant propagation.
func parityApps() map[string]func() *apk.App {
	return map[string]func() *apk.App{
		"SudokuTimer":  corpus.SudokuTimerApp,
		"News":         corpus.NewsApp,
		"Database":     corpus.DatabaseApp,
		"NullGuard":    corpus.NullGuardApp,
		"MessageGuard": messageGuardApp,
	}
}

// checkParity refutes every pair with the trail walker and the
// clone-walk reference under cfg and requires bit-for-bit identical
// verdicts (TruePositive, RefutedOrders, Paths, BudgetExhausted) plus
// identical pruned-path and capped-store tallies.
func checkParity(t *testing.T, name string, cfg Config, app *apk.App) {
	t.Helper()
	reg, res, pairs := analyzeForCheckAll(t, app)
	if len(pairs) == 0 {
		t.Fatalf("%s: fixture produced no pairs", name)
	}

	trailRef := NewRefuter(reg, res, cfg)
	cloneRef := NewRefuter(reg, res, cfg)

	for _, p := range pairs {
		got := trailRef.Check(p)
		var want Verdict
		withCloneWalk(func() { want = cloneRef.Check(p) })
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s pair %s: trail verdict %+v, clone verdict %+v",
				name, p.Key(), got, want)
		}
	}
	if trailRef.pruned != cloneRef.pruned {
		t.Errorf("%s: pruned paths diverge: trail %d, clone %d",
			name, trailRef.pruned, cloneRef.pruned)
	}
	if trailRef.entryCapped != cloneRef.entryCapped {
		t.Errorf("%s: capped stores diverge: trail %d, clone %d",
			name, trailRef.entryCapped, cloneRef.entryCapped)
	}
}

// TestWalkerParityTrailVsClone the allocation-free trail walker must
// reproduce the clone-per-predecessor reference bit for bit on every
// corpus fixture: same verdicts, same path counts, same pruned and
// capped tallies.
func TestWalkerParityTrailVsClone(t *testing.T) {
	for name, mk := range parityApps() {
		checkParity(t, name, Config{}, mk())
	}
}

// TestWalkerParityBudgetConstrained parity must also hold when the path
// budget bites mid-walk (the exploration order dependence a divergent
// walk order would expose immediately).
func TestWalkerParityBudgetConstrained(t *testing.T) {
	for name, mk := range parityApps() {
		checkParity(t, name, Config{MaxPaths: 37}, mk())
	}
}

// TestWalkerParityCacheDisabled without memoization every query re-runs
// the walker, so a trail/clone divergence cannot hide behind a cache
// hit.
func TestWalkerParityCacheDisabled(t *testing.T) {
	checkParity(t, "SudokuTimer", Config{DisableCache: true}, corpus.SudokuTimerApp())
}

// TestWalkerParityParallel the worker pool over trail walkers must
// produce the same verdict slice and observability totals as the
// clone-walker pool, with one worker and with several.
func TestWalkerParityParallel(t *testing.T) {
	for name, mk := range parityApps() {
		reg, res, pairs := analyzeForCheckAll(t, mk())
		for _, jobs := range []int{1, 4} {
			trTrail := obs.New("trail")
			trailV, _ := CheckAll(reg, res, Config{Jobs: jobs, Obs: trTrail}, pairs)
			trClone := obs.New("clone")
			var cloneV []Verdict
			withCloneWalk(func() { cloneV, _ = CheckAll(reg, res, Config{Jobs: jobs, Obs: trClone}, pairs) })
			if !reflect.DeepEqual(trailV, cloneV) {
				t.Errorf("%s jobs=%d: verdicts diverge:\n%+v\nvs\n%+v", name, jobs, trailV, cloneV)
			}
			for _, c := range []string{"refute.pairs", "refute.paths", "refute.paths_pruned", "refute.entry_stores_capped"} {
				if a, b := trTrail.Counter(c), trClone.Counter(c); a != b {
					t.Errorf("%s jobs=%d: %s diverges: trail %d, clone %d", name, jobs, c, a, b)
				}
			}
		}
	}
}

// TestRacePairVerdictsStable is a pinned-output regression: a pair's
// verdict, path count included, must not depend on how many pairs the
// refuter checked before it, under either walker.
func TestRacePairVerdictsStable(t *testing.T) {
	for name, mk := range map[string]func() *apk.App{
		"Database": corpus.DatabaseApp, "SudokuTimer": corpus.SudokuTimerApp,
	} {
		reg, res, pairs := analyzeForCheckAll(t, mk())
		check := func(walk string) {
			reused := NewRefuter(reg, res, Config{})
			for _, p := range pairs {
				got := reused.Check(p)
				want := NewRefuter(reg, res, Config{}).Check(p)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s walk pair %s: reused refuter %+v, fresh %+v",
						name, walk, p.Key(), got, want)
				}
			}
		}
		check("trail")
		withCloneWalk(func() { check("clone") })
	}
}
