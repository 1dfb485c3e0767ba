package corpus

import (
	"bytes"
	"math/rand"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/core"
	"sierra/internal/harness"
	"sierra/internal/ir/irtest"
)

func TestPaperRowsComplete(t *testing.T) {
	rows := PaperRows()
	if len(rows) != 20 {
		t.Fatalf("rows = %d, want 20", len(rows))
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if seen[r.Name] {
			t.Errorf("duplicate row %s", r.Name)
		}
		seen[r.Name] = true
		if r.Harnesses < 1 || r.Actions < r.Harnesses || r.SizeKB <= 0 {
			t.Errorf("implausible row %+v", r)
		}
		if r.RacyNoAS < r.RacyAS || r.RacyAS < r.AfterRefutation {
			t.Errorf("column monotonicity violated in %s", r.Name)
		}
	}
	if len(Names()) != 20 {
		t.Error("Names() mismatch")
	}
	if _, ok := RowByName("OpenSudoku"); !ok {
		t.Error("RowByName failed")
	}
	if _, ok := RowByName("NoSuchApp"); ok {
		t.Error("bogus row found")
	}
}

func TestNamedAppsValidateAndAreDeterministic(t *testing.T) {
	for _, row := range PaperRows()[:6] {
		a1, gt1 := NamedApp(row)
		a2, _ := NamedApp(row)
		if err := a1.Validate(); err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		if a1.Program.NumClasses() != a2.Program.NumClasses() {
			t.Errorf("%s: nondeterministic class count", row.Name)
		}
		if len(a1.Manifest.Activities) != row.Harnesses {
			t.Errorf("%s: activities = %d, want %d", row.Name,
				len(a1.Manifest.Activities), row.Harnesses)
		}
		if len(gt1.TrueFields) == 0 || len(gt1.RefutableFields) == 0 {
			t.Errorf("%s: ground truth empty", row.Name)
		}
	}
}

// checkHarnessedSites checks app's allocation sites after its own
// Finalize and again after harness generation's, which walks only the
// synthetic classes it registers.
func checkHarnessedSites(t *testing.T, what string, app *apk.App) {
	t.Helper()
	if err := irtest.CheckSites(app.Program); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	harness.Generate(app)
	if err := irtest.CheckSites(app.Program); err != nil {
		t.Fatalf("%s after harness generation: %v", what, err)
	}
}

// TestFinalizeNumbersEverySite runs the site check over every paper app,
// built and parsed from its serialization, and over one app of every
// scenario family.
func TestFinalizeNumbersEverySite(t *testing.T) {
	smallest := 0
	for i, row := range PaperRows() {
		checkHarnessedSites(t, row.Name, mustNamedApp(row))
		raw, err := appfile.Bytes(mustNamedApp(row))
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := appfile.Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", row.Name, err)
		}
		checkHarnessedSites(t, row.Name+" parsed", parsed)
		if row.SizeKB < PaperRows()[smallest].SizeKB {
			smallest = i
		}
	}
	for _, s := range Scenarios() {
		// The row-derived families take the smallest row, so the check
		// stays cheap at table2-x10's scale.
		app, _ := s.Generate("sites-"+s.Name, 3, map[string]int{"row": smallest})
		checkHarnessedSites(t, s.Name, app)
	}
}

func mustNamedApp(row PaperRow) *apk.App {
	app, _ := NamedApp(row)
	return app
}

func TestGeneratedAppShape(t *testing.T) {
	row, _ := RowByName("APV")
	app, gt := NamedApp(row)
	res := core.Analyze(app, core.Options{CompareContexts: true})

	if res.NumHarnesses() != row.Harnesses {
		t.Errorf("harnesses = %d, want %d", res.NumHarnesses(), row.Harnesses)
	}
	// Funnel monotonicity: candidates without AS ≥ with AS ≥ survivors.
	if res.RacyPairsNoAS < len(res.RacyPairs) {
		t.Errorf("noAS %d < AS %d", res.RacyPairsNoAS, len(res.RacyPairs))
	}
	if len(res.RacyPairs) < res.TrueRaces() {
		t.Errorf("AS %d < after-refutation %d", len(res.RacyPairs), res.TrueRaces())
	}
	// Action sensitivity must make a real dent (the paper sees ~5×; we
	// require at least 1.5×).
	if float64(res.RacyPairsNoAS) < 1.5*float64(len(res.RacyPairs)) {
		t.Errorf("AS reduction too weak: %d vs %d", res.RacyPairsNoAS, len(res.RacyPairs))
	}
	// Refutation must prune something (the guard patterns).
	if res.TrueRaces() >= len(res.RacyPairs) {
		t.Errorf("refutation pruned nothing: %d of %d", res.TrueRaces(), len(res.RacyPairs))
	}
	// Classification: most survivors are planted true races; refutable
	// fields must not survive.
	nTrue, nFP, nUnknown := 0, 0, 0
	for _, r := range res.Reports {
		switch gt.Classify(r.Pair.A.Field) {
		case "true":
			nTrue++
		case "fp":
			nFP++
			if gt.RefutableFields[r.Pair.A.Field] {
				t.Errorf("refutable field %s survived refutation", r.Pair.A.Field)
			}
		default:
			nUnknown++
		}
	}
	if nTrue <= nFP {
		t.Errorf("true=%d fp=%d: survivors should be mostly true races", nTrue, nFP)
	}
	if nUnknown > res.TrueRaces()/3 {
		t.Errorf("too many unclassified reports: %d of %d", nUnknown, res.TrueRaces())
	}
}

func TestFDroidAppsGenerate(t *testing.T) {
	for _, i := range []int{0, 42, 173} {
		app, gt := FDroidApp(i)
		if err := app.Validate(); err != nil {
			t.Fatalf("fdroid-%d: %v", i, err)
		}
		if len(gt.TrueFields) == 0 {
			t.Errorf("fdroid-%d: no planted races", i)
		}
		row := FDroidRow(i)
		if row.Harnesses < 2 || row.Harnesses > 7 {
			t.Errorf("fdroid-%d: harnesses = %d out of sampling range", i, row.Harnesses)
		}
	}
	// Distinct seeds yield distinct structure.
	a, _ := FDroidApp(1)
	b, _ := FDroidApp(2)
	if a.Program.NumClasses() == b.Program.NumClasses() &&
		len(a.Manifest.Activities) == len(b.Manifest.Activities) &&
		a.BytecodeSize() == b.BytecodeSize() {
		t.Error("fdroid apps 1 and 2 look identical")
	}
}

func TestDeriveKnobsSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, row := range PaperRows() {
		k := DeriveKnobs(row, rng)
		if k.Activities != row.Harnesses {
			t.Errorf("%s: activities %d != harnesses %d", row.Name, k.Activities, row.Harnesses)
		}
		if k.AsyncTotal < 1 || k.GuardTotal < 1 {
			t.Errorf("%s: degenerate knobs %+v", row.Name, k)
		}
		if k.AsyncFields < 1 || k.AsyncFields > 16 {
			t.Errorf("%s: AsyncFields %d out of range", row.Name, k.AsyncFields)
		}
	}
}

func TestGroundTruthClassify(t *testing.T) {
	gt := &GroundTruth{
		TrueFields:      map[string]bool{"a": true},
		FPFields:        map[string]bool{"b": true},
		RefutableFields: map[string]bool{"c": true},
		TrapFields:      map[string]bool{"d": true},
	}
	cases := map[string]string{"a": "true", "b": "fp", "c": "fp", "d": "fp", "e": "unknown"}
	for f, want := range cases {
		if got := gt.Classify(f); got != want {
			t.Errorf("Classify(%s) = %s, want %s", f, got, want)
		}
	}
	if got := gt.SortedTrueFields(); len(got) != 1 || got[0] != "a" {
		t.Errorf("SortedTrueFields = %v", got)
	}
}

func TestBytecodeSizeRankingFollowsPaper(t *testing.T) {
	// Padding should make bigger paper apps bigger models: compare the
	// largest and smallest named apps.
	big, _ := RowByName("Astrid")    // 5.4 MB
	small, _ := RowByName("VuDroid") // 63 KB
	bapp, _ := NamedApp(big)
	sapp, _ := NamedApp(small)
	if bapp.BytecodeSize() <= sapp.BytecodeSize() {
		t.Errorf("size ranking inverted: %d (Astrid) vs %d (VuDroid)",
			bapp.BytecodeSize(), sapp.BytecodeSize())
	}
}

func TestSeedForStability(t *testing.T) {
	if seedFor("APV") != seedFor("APV") {
		t.Error("unstable seed")
	}
	if seedFor("APV") == seedFor("VLC") {
		t.Error("seed collision between distinct names")
	}
}

func TestLibraryBucketExercised(t *testing.T) {
	// An app with ≥3 async patterns routes one through library code; its
	// reports must include the library category.
	row, _ := RowByName("FBReader")
	app, _ := NamedApp(row)
	res := core.Analyze(app, core.Options{})
	sawLibrary := false
	for _, r := range res.Reports {
		if r.Category.String() == "library" {
			sawLibrary = true
		}
	}
	if !sawLibrary {
		t.Error("no library-category reports despite library-routed patterns")
	}
}

func TestServicePatternProducesServiceRace(t *testing.T) {
	row, _ := RowByName("APV")
	app, gt := NamedApp(row)
	if len(app.Manifest.Services) == 0 {
		t.Fatal("no service declared")
	}
	if !gt.TrueFields["svcstate0"] {
		t.Fatal("service state not in ground truth")
	}
	res := core.Analyze(app, core.Options{})
	found := false
	for _, r := range res.Reports {
		if r.Pair.A.Field == "svcstate0" {
			found = true
			a := res.Registry.Get(r.Pair.A.Action)
			b := res.Registry.Get(r.Pair.B.Action)
			if a.Callback != "onStartCommand" && b.Callback != "onStartCommand" {
				t.Errorf("service race without service action: %s vs %s", a.Name(), b.Name())
			}
		}
	}
	if !found {
		t.Error("service-vs-lifecycle race missing from reports")
	}
}

func TestHandlerThreadPatternRace(t *testing.T) {
	row, _ := RowByName("APV") // 4 activities → pattern on activity 1
	app, gt := NamedApp(row)
	if !gt.TrueFields["workres1"] {
		t.Fatal("handler-thread state not in ground truth")
	}
	res := core.Analyze(app, core.Options{})
	found := false
	for _, r := range res.Reports {
		if r.Pair.A.Field != "workres1" {
			continue
		}
		found = true
		// One side must be the handleMessage action on a background looper.
		for _, aid := range []int{r.Pair.A.Action, r.Pair.B.Action} {
			a := res.Registry.Get(aid)
			if a.Callback == "handleMessage" && a.OnMainLooper() {
				t.Error("worker handler action should be on a HandlerThread looper")
			}
		}
	}
	if !found {
		t.Error("handler-thread race missing from reports")
	}
}
