package core

import (
	"testing"

	"sierra/internal/corpus"
	"sierra/internal/report"
	"sierra/internal/shbg"
)

func TestPipelineNewsApp(t *testing.T) {
	res := Analyze(corpus.NewsApp(), Options{CompareContexts: true})
	if res.NumHarnesses() != 1 {
		t.Errorf("harnesses = %d, want 1", res.NumHarnesses())
	}
	if res.NumActions() < 12 {
		t.Errorf("actions = %d, want >= 12", res.NumActions())
	}
	if res.HBEdges() == 0 {
		t.Error("no HB edges")
	}
	if p := res.OrderedPercent(); p <= 0 || p > 100 {
		t.Errorf("ordered%% = %f", p)
	}
	if len(res.RacyPairs) == 0 {
		t.Fatal("no racy pairs")
	}
	if res.RacyPairsNoAS < len(res.RacyPairs) {
		t.Errorf("hybrid pairs %d < AS pairs %d: AS must not increase candidates",
			res.RacyPairsNoAS, len(res.RacyPairs))
	}
	if res.TrueRaces() == 0 {
		t.Fatal("the Fig 1 races must survive refutation")
	}
	if res.TrueRaces() > len(res.RacyPairs) {
		t.Error("refutation cannot add races")
	}
	// Ranking invariants: ranks 1..n, app bucket before framework.
	lastCat := report.AppCode
	for i, r := range res.Reports {
		if r.Rank != i+1 {
			t.Errorf("rank %d at index %d", r.Rank, i)
		}
		if r.Category < lastCat {
			t.Error("reports not sorted by category")
		}
		lastCat = r.Category
	}
	if res.Ledger.Total <= 0 || res.Ledger.Layers[CGPA] <= 0 {
		t.Error("timings not recorded")
	}
}

func TestPipelineSudokuRefutesGuardedPair(t *testing.T) {
	res := Analyze(corpus.SudokuTimerApp(), Options{})
	// The mAccumTime pair is refuted; surviving races include the
	// mIsRunning guard pair.
	for _, r := range res.Reports {
		if r.Pair.A.Field == "mAccumTime" {
			aCb := res.Registry.Get(r.Pair.A.Action).Callback
			bCb := res.Registry.Get(r.Pair.B.Action).Callback
			if (aCb == "run" && bCb == "onPause") || (aCb == "onPause" && bCb == "run") {
				t.Errorf("guarded mAccumTime pair not refuted: %s", r.Pair.Key())
			}
		}
	}
	foundGuard := false
	for _, r := range res.Reports {
		if r.Pair.A.Field == "mIsRunning" {
			foundGuard = true
			if !r.Benign {
				t.Error("mIsRunning race should be classified benign-guard")
			}
		}
	}
	if !foundGuard {
		t.Error("guard race missing from reports")
	}
}

func TestSkipRefutation(t *testing.T) {
	res := Analyze(corpus.NewsApp(), Options{SkipRefutation: true})
	if len(res.Reports) != 0 || len(res.Verdicts) != 0 {
		t.Error("refutation ran despite SkipRefutation")
	}
	if len(res.RacyPairs) == 0 {
		t.Error("pairs should still be computed")
	}
}

func TestSHBGAblationThroughPipeline(t *testing.T) {
	full := Analyze(corpus.NewsApp(), Options{SkipRefutation: true})
	crippled := Analyze(corpus.NewsApp(), Options{
		SkipRefutation: true,
		SHBG: shbg.Options{Disable: map[shbg.Rule]bool{
			shbg.RuleLifecycle: true,
			shbg.RuleGUI:       true,
		}},
	})
	if crippled.HBEdges() >= full.HBEdges() {
		t.Errorf("disabling dominance rules must lose edges: %d vs %d",
			crippled.HBEdges(), full.HBEdges())
	}
	if len(crippled.RacyPairs) < len(full.RacyPairs) {
		t.Errorf("fewer HB edges cannot mean fewer candidates: %d vs %d",
			len(crippled.RacyPairs), len(full.RacyPairs))
	}
}

func TestDatabaseAppEndToEnd(t *testing.T) {
	res := Analyze(corpus.DatabaseApp(), Options{})
	if res.TrueRaces() == 0 {
		t.Fatal("Fig 2 races must be reported")
	}
	// The mOpen race is a framework-internal access (SQLiteDatabase) —
	// category framework; mDB is pure app code.
	var sawApp, sawFw bool
	for _, r := range res.Reports {
		switch r.Category {
		case report.AppCode:
			sawApp = true
		case report.FrameworkFromApp:
			sawFw = true
		}
	}
	if !sawApp || !sawFw {
		t.Errorf("want both app and framework categories; app=%t fw=%t", sawApp, sawFw)
	}
	s := report.Summarize(res.Reports)
	if s.Total != len(res.Reports) || s.App+s.Framework+s.Library != s.Total {
		t.Errorf("summary inconsistent: %+v", s)
	}
}
