package pointer_test

import (
	"context"
	"reflect"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/metrics"
	"sierra/internal/obs"
	"sierra/internal/pointer"
)

// TestSolverGoldenTables is the end-to-end parity gate for the delta
// solver on all 20 paper apps: the canonical points-to dump that the
// actions hook drives, and the evaluation rows behind Tables 3 and 4
// (timings zeroed, effort columns included), must be identical under
// the exhaustive reference.
func TestSolverGoldenTables(t *testing.T) {
	rows := corpus.PaperRows()
	run := func() ([]string, []metrics.Row) {
		dumps := make([]string, len(rows))
		for i, row := range rows {
			app, _ := corpus.NamedApp(row)
			_, _, w := actions.AnalyzeSolverWarm(nil, app, harness.Generate(app), pointer.ActionSensitivePolicy{K: 2}, pointer.SolverDelta, 0, nil)
			dumps[i] = pointer.DumpWarm(w, nil)
		}
		got, res := metrics.EvaluateNamedBatch(context.Background(), rows, metrics.Options{}, metrics.BatchOptions{Jobs: 1})
		for i, r := range res {
			if r.Status != batch.StatusOK {
				t.Fatalf("job %d (%s) status %q", i, r.Name, r.Status)
			}
			got[i].CGPA, got[i].HBG, got[i].Pairs = 0, 0, 0
			got[i].Compare, got[i].Refutation, got[i].Total = 0, 0, 0
		}
		return dumps, got
	}
	deltaDumps, delta := run()
	pointer.UseReferenceSolver(t)
	refDumps, ref := run()

	for i, row := range rows {
		if deltaDumps[i] != refDumps[i] {
			t.Errorf("%s: points-to dump differs between the delta solver and the reference", row.Name)
		}
	}
	if got, want := metrics.FormatTable3(delta), metrics.FormatTable3(ref); got != want {
		t.Errorf("Table 3 differs:\ndelta:\n%s\nreference:\n%s", got, want)
	}
	if got, want := metrics.FormatTable4(delta), metrics.FormatTable4(ref); got != want {
		t.Errorf("Table 4 (timings zeroed) differs:\ndelta:\n%s\nreference:\n%s", got, want)
	}
	if !reflect.DeepEqual(delta, ref) {
		t.Errorf("rows differ:\ndelta:     %+v\nreference: %+v", delta, ref)
	}
}

// TestSolverGaugeParity pins the observability contract: both solvers
// report the same points-to volume gauges and pass counts (they compute
// the same result), while the delta solver additionally proves it
// skipped work.
func TestSolverGaugeParity(t *testing.T) {
	pr, ok := corpus.RowByName("SuperGenPass")
	if !ok {
		t.Fatal("SuperGenPass missing from corpus")
	}
	run := func(name string) *obs.Trace {
		app, _ := corpus.NamedApp(pr)
		tr := obs.New(name)
		core.Analyze(app, core.Options{SkipRefutation: true, Obs: tr})
		return tr
	}
	trD := run("delta")
	pointer.UseReferenceSolver(t)
	trE := run("reference")

	for _, g := range []string{"pointer.pts_objs", "pointer.pts_vars", "pointer.pts_max"} {
		if d, e := trD.GaugeValue(g), trE.GaugeValue(g); d != e {
			t.Errorf("%s: delta %v vs reference %v", g, d, e)
		}
	}
	for _, c := range []string{"pointer.passes", "pointer.worklist_iterations"} {
		if d, e := trD.Counter(c), trE.Counter(c); d != e {
			t.Errorf("%s: delta %d vs reference %d", c, d, e)
		}
	}
	if skips := trD.Counter("pointer.transfer_skips"); skips == 0 {
		t.Error("delta solver reported zero transfer_skips — no work was actually skipped")
	}
	if trE.Counter("pointer.transfer_skips") != 0 {
		t.Error("reference solver reported transfer_skips")
	}
	if trD.Counter("pointer.dep_edges") == 0 {
		t.Error("delta solver reported zero dep_edges")
	}
}
