package report_test

import (
	"math/rand"
	"sort"
	"strings"
	"testing"

	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/race"
	"sierra/internal/report"
	"sierra/internal/symexec"
)

func TestExplainNarrative(t *testing.T) {
	res := core.Analyze(corpus.NewsApp(), core.Options{})
	if len(res.Reports) == 0 {
		t.Fatal("no reports")
	}
	for i := range res.Reports {
		out := res.Reports[i].Explain(res.Registry, res.Graph)
		for _, want := range []string{"race on", "first", "second", "unordered"} {
			if !strings.Contains(out, want) {
				t.Errorf("explanation missing %q:\n%s", want, out)
			}
		}
	}
	// The Fig 1 mData report should name the spawn chain through onClick.
	var fig1 string
	for i := range res.Reports {
		if res.Reports[i].Pair.A.Field == "mData" {
			fig1 = res.Reports[i].Explain(res.Registry, res.Graph)
		}
	}
	if fig1 == "" {
		t.Fatal("mData report missing")
	}
	for _, want := range []string{"doInBackground", "onClick", "spawned via", "background thread"} {
		if !strings.Contains(fig1, want) {
			t.Errorf("Fig 1 explanation missing %q:\n%s", want, fig1)
		}
	}
}

func TestExplainBenignTag(t *testing.T) {
	res := core.Analyze(corpus.SudokuTimerApp(), core.Options{})
	found := false
	for i := range res.Reports {
		if !res.Reports[i].Benign {
			continue
		}
		found = true
		out := res.Reports[i].Explain(res.Registry, res.Graph)
		if !strings.Contains(out, "benign") {
			t.Errorf("benign report not tagged:\n%s", out)
		}
	}
	if !found {
		t.Fatal("no benign reports on the sudoku fixture")
	}
}

func TestCommonAncestorsMentioned(t *testing.T) {
	res := core.Analyze(corpus.NewsApp(), core.Options{})
	anyAncestors := false
	for i := range res.Reports {
		out := res.Reports[i].Explain(res.Registry, res.Graph)
		if strings.Contains(out, "common HB ancestors") {
			anyAncestors = true
			// onCreate precedes both sides of every news app race.
			if !strings.Contains(out, "onC") && !strings.Contains(out, "harness") {
				t.Errorf("ancestor line lacks plausible anchors:\n%s", out)
			}
		}
	}
	if !anyAncestors {
		t.Error("no explanation mentioned common ancestors")
	}
}

func TestSummarizeCategories(t *testing.T) {
	res := core.Analyze(corpus.DatabaseApp(), core.Options{})
	s := report.Summarize(res.Reports)
	if s.Total != len(res.Reports) {
		t.Fatalf("total %d != %d", s.Total, len(res.Reports))
	}
	if s.App+s.Framework+s.Library != s.Total {
		t.Error("category counts don't sum")
	}
	if s.BenignPct < 0 || s.BenignPct > 100 {
		t.Errorf("benign%% out of range: %f", s.BenignPct)
	}
}

func TestDescribeFormatsRank(t *testing.T) {
	res := core.Analyze(corpus.NewsApp(), core.Options{})
	for i := range res.Reports {
		d := res.Reports[i].Describe(res.Registry)
		if !strings.HasPrefix(d, "#") {
			t.Errorf("describe missing rank prefix: %s", d)
		}
		if !strings.Contains(d, "vs") {
			t.Errorf("describe missing pair: %s", d)
		}
	}
}

// TestRankMatchesComparator holds the decorated sort to the plain
// comparator (category, reference races first, pair key) on shuffled
// survivors of every paper app.
func TestRankMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, row := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(row)
		res := core.Analyze(app, core.Options{})
		pairs := make([]race.Pair, len(res.Reports))
		verdicts := make([]symexec.Verdict, len(res.Reports))
		for i, r := range res.Reports {
			pairs[i], verdicts[i] = r.Pair, r.Verdict
		}
		rng.Shuffle(len(pairs), func(i, j int) {
			pairs[i], pairs[j] = pairs[j], pairs[i]
			verdicts[i], verdicts[j] = verdicts[j], verdicts[i]
		})
		got := report.Rank(app.Program, pairs, verdicts)
		// The reference sorts the same reports, in shuffled input order,
		// with the comparator.
		byKey := map[string]report.Report{}
		for _, r := range got {
			byKey[r.Pair.Key()] = r
		}
		if len(byKey) != len(got) {
			t.Fatalf("%s: pair keys are not unique", row.Name)
		}
		want := make([]report.Report, len(pairs))
		for i, p := range pairs {
			want[i] = byKey[p.Key()]
		}
		sort.SliceStable(want, func(i, j int) bool {
			a, b := want[i], want[j]
			if a.Category != b.Category {
				return a.Category < b.Category
			}
			if a.RefRace != b.RefRace {
				return a.RefRace
			}
			return a.Pair.Key() < b.Pair.Key()
		})
		if len(got) != len(pairs) {
			t.Fatalf("%s: %d reports for %d pairs", row.Name, len(got), len(pairs))
		}
		for i := range got {
			if got[i].Rank != i+1 || got[i].Pair.Key() != want[i].Pair.Key() {
				t.Fatalf("%s: rank %d is %s (rank field %d), want %s", row.Name, i+1, got[i].Pair.Key(), got[i].Rank, want[i].Pair.Key())
			}
		}
	}
}
