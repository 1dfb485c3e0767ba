package verify

import (
	"fmt"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// analyzePairs runs the static pipeline up to racy pairs with verdicts.
func analyzePairs(t *testing.T, app *apk.App) (*actions.Registry, []race.Pair, []symexec.Verdict) {
	t.Helper()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))
	ref := symexec.NewRefuter(reg, res, symexec.Config{})
	verdicts := make([]symexec.Verdict, len(pairs))
	for i, p := range pairs {
		verdicts[i] = ref.Check(p)
	}
	return reg, pairs, verdicts
}

func pairOn(reg *actions.Registry, pairs []race.Pair, field, cb1, cb2 string) (race.Pair, bool) {
	for _, p := range pairs {
		if p.A.Field != field {
			continue
		}
		n1 := reg.Get(p.A.Action).Callback
		n2 := reg.Get(p.B.Action).Callback
		if (n1 == cb1 && n2 == cb2) || (n1 == cb2 && n2 == cb1) {
			return p, true
		}
	}
	return race.Pair{}, false
}

func TestTrueRaceIsDynamicallyConfirmed(t *testing.T) {
	reg, pairs, _ := analyzePairs(t, corpus.NewsApp())
	p, ok := pairOn(reg, pairs, "mData", "doInBackground", "onScroll")
	if !ok {
		t.Fatal("Fig 1 pair missing")
	}
	out := Witness(corpus.NewsApp, p, Options{Schedules: 120, EventsPerSchedule: 60, Seed: 1})
	if !out.Confirmed() {
		t.Fatalf("the Fig 1 race should be witnessable in both orders: %+v", out)
	}
	if out.WitnessSeedAB < 0 || out.WitnessSeedBA < 0 {
		t.Errorf("witness seeds not recorded: %+v", out)
	}
}

func TestRefutedPairIsNeverConfirmed(t *testing.T) {
	// The soundness cross-check: the statically-refuted guarded pair
	// (Fig 8's mAccumTime) must not be witnessable in both orders — the
	// guard makes one order semantically impossible.
	reg, pairs, verdicts := analyzePairs(t, corpus.SudokuTimerApp())
	checked := 0
	for i, p := range pairs {
		if verdicts[i].TruePositive || p.A.Field != "mAccumTime" {
			continue
		}
		_ = reg
		out := Witness(corpus.SudokuTimerApp, p, Options{Schedules: 150, EventsPerSchedule: 80, Seed: 7})
		if out.Confirmed() {
			t.Errorf("refuted pair %s witnessed in both orders (seeds %d/%d) — refuter unsound",
				p.Key(), out.WitnessSeedAB, out.WitnessSeedBA)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no refuted mAccumTime pairs to check")
	}
}

func TestRefuterSoundOnGeneratedApp(t *testing.T) {
	// Broader cross-validation: on a generated corpus app, no refuted
	// pair may be dynamically confirmed.
	row, _ := corpus.RowByName("VuDroid")
	app, _ := corpus.NamedApp(row)
	_, pairs, verdicts := analyzePairs(t, app)
	factory := func() *apk.App {
		a, _ := corpus.NamedApp(row)
		return a
	}
	refuted := 0
	for i, p := range pairs {
		if verdicts[i].TruePositive {
			continue
		}
		refuted++
		if refuted > 6 {
			break // bound test time; each pair runs many schedules
		}
		out := Witness(factory, p, Options{Schedules: 60, EventsPerSchedule: 60, Seed: 3})
		if out.Confirmed() {
			t.Errorf("refuted pair %s dynamically confirmed — refuter unsound", p.Key())
		}
	}
	if refuted == 0 {
		t.Skip("no refuted pairs on this app")
	}
}

func TestGuardRaceConfirmed(t *testing.T) {
	// The guard flag itself is a true race and should be confirmable.
	reg, pairs, verdicts := analyzePairs(t, corpus.SudokuTimerApp())
	for i, p := range pairs {
		if !verdicts[i].TruePositive || p.A.Field != "mIsRunning" {
			continue
		}
		cb1 := reg.Get(p.A.Action).Callback
		cb2 := reg.Get(p.B.Action).Callback
		if !(cb1 == "onPause" || cb2 == "onPause") {
			continue
		}
		out := Witness(corpus.SudokuTimerApp, p, Options{Schedules: 200, EventsPerSchedule: 80, Seed: 5})
		if !out.Confirmed() {
			t.Logf("guard race %s not confirmed in %d schedules (acceptable: dynamic search is best-effort)", p.Key(), out.Schedules)
		}
		return
	}
	t.Fatal("no surviving guard pair found")
}

func TestWitnessAllShapes(t *testing.T) {
	_, pairs, _ := analyzePairs(t, corpus.NewsApp())
	reports := WitnessAll(corpus.NewsApp, pairs, Options{Schedules: 10, EventsPerSchedule: 40, Seed: 2})
	if len(reports) != len(pairs) {
		t.Fatalf("reports = %d, want %d", len(reports), len(pairs))
	}
	for _, r := range reports {
		if r.Outcome.Schedules == 0 {
			t.Error("no schedules run")
		}
		if r.Outcome.Confirmed() && (r.Outcome.WitnessSeedAB < 0 || r.Outcome.WitnessSeedBA < 0) {
			t.Error("confirmed without witness seeds")
		}
	}
}

// familyApp generates a scenario family's app; each call is a fresh
// copy (analysis extends the program with harness classes).
func familyApp(sc corpus.Scenario, seed int64) func() *apk.App {
	name := fmt.Sprintf("%s-%d", sc.Name, seed)
	return func() *apk.App {
		a, _ := sc.Generate(name, seed, nil)
		return a
	}
}

// TestWitnessAllMatchesWitness: sharing each schedule's trace across
// pairs must not change any pair's outcome — observed orders, witness
// seeds and schedule counts equal a per-pair search.
func TestWitnessAllMatchesWitness(t *testing.T) {
	apps := map[string]func() *apk.App{"newsapp": corpus.NewsApp}
	for _, sc := range corpus.Scenarios() {
		if sc.Name == "guarded-sync" || sc.Name == "async-storm" {
			apps[sc.Name+"-0"] = familyApp(sc, 0)
		}
	}
	opts := Options{Schedules: 12, EventsPerSchedule: 60, Seed: 4}
	for name, mk := range apps {
		res := core.Analyze(mk(), core.Options{SkipRefutation: true})
		if len(res.RacyPairs) == 0 {
			t.Fatalf("%s: no pairs", name)
		}
		runApp := mk()
		factory := func() *apk.App { return runApp }
		confirmed := 0
		for i, r := range WitnessAll(factory, res.RacyPairs, opts) {
			want := Witness(factory, res.RacyPairs[i], opts)
			if r.Outcome != want {
				t.Errorf("%s pair %s: WitnessAll %+v, Witness %+v", name, r.Pair.Key(), r.Outcome, want)
			}
			if want.Confirmed() {
				confirmed++
			}
		}
		t.Logf("%s: %d pairs, %d confirmed", name, len(res.RacyPairs), confirmed)
	}
}

// TestRefutedPairsNeverWitnessed is the refute obligation of the
// soundness ledger on every scenario family except table2-x10 (too
// large for a unit test), at seeds 0–2: no pair the production
// pipeline refutes may be witnessed in both orders by the runtime
// (20 schedules of 60 events each).
func TestRefutedPairsNeverWitnessed(t *testing.T) {
	total, oneOrder := 0, 0
	for _, sc := range corpus.Scenarios() {
		if sc.Name == "table2-x10" {
			continue
		}
		for seed := int64(0); seed < 3; seed++ {
			mk := familyApp(sc, seed)
			res := core.Analyze(mk(), core.Options{})
			var refuted []race.Pair
			for i, v := range res.AllVerdicts {
				if !v.TruePositive {
					refuted = append(refuted, res.RacyPairs[i])
				}
			}
			// The machine only reads the app, so one unanalyzed copy
			// serves every schedule.
			runApp := mk()
			reports := WitnessAll(func() *apk.App { return runApp }, refuted,
				Options{Schedules: 20, EventsPerSchedule: 60, Seed: seed})
			for _, r := range reports {
				if r.Outcome.ObservedAB || r.Outcome.ObservedBA {
					oneOrder++
				}
				if r.Outcome.Confirmed() {
					t.Errorf("%s-%d: refuted pair %s witnessed in both orders (seeds %d/%d) — refuter unsound",
						sc.Name, seed, r.Pair.Key(), r.Outcome.WitnessSeedAB, r.Outcome.WitnessSeedBA)
				}
			}
			total += len(refuted)
		}
	}
	if total == 0 {
		t.Fatal("no family refuted any pair")
	}
	t.Logf("%d refuted pairs checked, %d of them observed in one order", total, oneOrder)
}

func TestOutcomeConfirmedSemantics(t *testing.T) {
	if (Outcome{ObservedAB: true}).Confirmed() {
		t.Error("one order is not a confirmation")
	}
	if !(Outcome{ObservedAB: true, ObservedBA: true}).Confirmed() {
		t.Error("both orders must confirm")
	}
}
