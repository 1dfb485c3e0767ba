package symexec

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/shbg"
)

// analyzeForCheckAll runs the pipeline up to racy pairs, returning the
// inputs CheckAll needs.
func analyzeForCheckAll(t *testing.T, app *apk.App) (*actions.Registry, *pointer.Result, []race.Pair) {
	t.Helper()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))
	return reg, res, pairs
}

// refuteCounters are the counters recordVerdict emits per pair.
var refuteCounters = []string{
	"refute.pairs", "refute.paths", "refute.paths_pruned",
	"refute.entry_stores_capped", "refute.budget_exhausted",
	"refute.verdict.race", "refute.verdict.refuted_both",
	"refute.verdict.refuted_ab", "refute.verdict.refuted_ba",
}

// refuteObsDiff reports the first refute.* counter, or the
// refute.walk_paths histogram, on which two traces differ ("" when
// none does).
func refuteObsDiff(a, b *obs.Trace) string {
	for _, c := range refuteCounters {
		if x, y := a.Counter(c), b.Counter(c); x != y {
			return fmt.Sprintf("%s: %d vs %d", c, x, y)
		}
	}
	ha := a.Snapshot().Histograms["refute.walk_paths"]
	hb := b.Snapshot().Histograms["refute.walk_paths"]
	if ha.Count != hb.Count || ha.Sum != hb.Sum || !slices.Equal(ha.Counts, hb.Counts) {
		return fmt.Sprintf("refute.walk_paths: %+v vs %+v", ha, hb)
	}
	return ""
}

// TestCheckAllParallelDeterministic a pair's verdict depends on nothing
// but the pair: at every worker count (0 and 1 included) CheckAll
// returns the verdicts, path counts included, that one reused
// Refuter's Check loop returns, and records the same refute.* counters
// and refute.walk_paths histogram.
func TestCheckAllParallelDeterministic(t *testing.T) {
	for name, mk := range map[string]func() *apk.App{
		"SudokuTimer": corpus.SudokuTimerApp, "News": corpus.NewsApp, "Database": corpus.DatabaseApp,
	} {
		reg, res, pairs := analyzeForCheckAll(t, mk())
		if len(pairs) == 0 {
			t.Fatalf("%s: fixture produced no pairs", name)
		}
		trWant := obs.New("loop")
		ref := NewRefuter(reg, res, Config{Obs: trWant})
		want := make([]Verdict, len(pairs))
		for i, p := range pairs {
			want[i] = ref.Check(p)
		}
		for _, jobs := range []int{0, 1, 2, 3, 4, 8} {
			tr := obs.New("pool")
			got, interrupted := CheckAll(reg, res, Config{Jobs: jobs, Obs: tr}, pairs)
			if interrupted {
				t.Fatalf("%s jobs=%d: interrupted without a context", name, jobs)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s jobs=%d: verdicts differ from the Check loop:\n%+v\nvs\n%+v", name, jobs, got, want)
			}
			if d := refuteObsDiff(tr, trWant); d != "" {
				t.Errorf("%s jobs=%d: %s", name, jobs, d)
			}
		}
	}
}

// TestCheckAllCancelledReturnsPrefix a pre-cancelled context yields an
// empty (but well-formed) prefix and the interrupted flag, with one
// worker and with several.
func TestCheckAllCancelledReturnsPrefix(t *testing.T) {
	reg, res, pairs := analyzeForCheckAll(t, corpus.SudokuTimerApp())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, jobs := range []int{1, 4} {
		v, interrupted := CheckAll(reg, res, Config{Jobs: jobs, Ctx: ctx}, pairs)
		if !interrupted {
			t.Errorf("jobs=%d: cancelled run not marked interrupted", jobs)
		}
		if len(v) != 0 {
			t.Errorf("jobs=%d: cancelled run emitted %d verdicts", jobs, len(v))
		}
	}
}

// TestCheckAllPanicIsolation a worker panic (here: a pair whose action
// id does not exist) must not crash the pool; the pair keeps the
// over-approximate report-anyway verdict and is counted, and the pairs
// after it (checked by the same worker when there is one) keep their
// verdicts.
func TestCheckAllPanicIsolation(t *testing.T) {
	reg, res, pairs := analyzeForCheckAll(t, corpus.SudokuTimerApp())
	if len(pairs) == 0 {
		t.Fatal("fixture produced no pairs")
	}
	bad := pairs[0]
	bad.A.Action = reg.NumActions() + 50
	bad.B.Action = reg.NumActions() + 51
	mixed := append([]race.Pair{bad}, pairs...)
	want, _ := CheckAll(reg, res, Config{}, pairs)

	for _, jobs := range []int{1, 4} {
		tr := obs.New("test")
		v, interrupted := CheckAll(reg, res, Config{Jobs: jobs, Obs: tr}, mixed)
		if interrupted {
			t.Fatalf("jobs=%d: panic was reported as interruption", jobs)
		}
		if len(v) != len(mixed) {
			t.Fatalf("jobs=%d: %d verdicts for %d pairs", jobs, len(v), len(mixed))
		}
		if !v[0].TruePositive || !v[0].BudgetExhausted {
			t.Errorf("jobs=%d: panicked pair verdict = %+v, want over-approximate race", jobs, v[0])
		}
		if !reflect.DeepEqual(v[1:], want) {
			t.Errorf("jobs=%d: verdicts after the panic differ from a clean run", jobs)
		}
		if got := tr.Counter("refute.pair_panics"); got != 1 {
			t.Errorf("jobs=%d: refute.pair_panics = %d, want 1", jobs, got)
		}
		if got := tr.Counter("refute.pairs"); got != int64(len(mixed)) {
			t.Errorf("jobs=%d: refute.pairs = %d, want %d", jobs, got, len(mixed))
		}
	}
}
