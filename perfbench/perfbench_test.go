package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/serve"
)

func testConfig(t *testing.T, seed int64) runConfig {
	return runConfig{
		seed:     seed,
		trace:    true,
		traceDir: t.TempDir(),
		logf:     t.Logf,
	}
}

// reparse round-trips an app through its serialized form, so each
// pipeline under comparison gets a fresh program.
func reparse(t *testing.T, app *apk.App) []byte {
	t.Helper()
	raw, err := appfile.Bytes(app)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestTracedPipelineMatchesCore pins the traced replica to
// core.Analyze: same report document, verdicts and counts, under both
// kernel configurations the workloads use.
func TestTracedPipelineMatchesCore(t *testing.T) {
	var raws [][]byte
	for _, name := range []string{"VuDroid", "SuperGenPass", "OpenSudoku"} {
		row, _ := corpus.RowByName(name)
		app, _ := corpus.NamedApp(row)
		raws = append(raws, reparse(t, app))
	}
	for _, s := range corpus.Scenarios() {
		if s.Name == "paper-mix" || s.Name == "table2-x10" {
			continue
		}
		app, _ := s.Generate("perfbench-"+s.Name, 7, nil)
		raws = append(raws, reparse(t, app))
	}
	for _, opts := range []core.Options{paperOptions(), streamOptions()} {
		for _, raw := range raws {
			want := core.Analyze(mustParse(t, raw), opts)
			app := mustParse(t, raw)
			tr := newTracer()
			op, root := tr.newOp("op")
			got := tracedAnalyze(tr, op, root, app, opts)
			tr.end(root)
			name := want.App.Name
			if !bytes.Equal(serve.RenderReport("", got), serve.RenderReport("", want)) {
				t.Errorf("%s (refute jobs %d): traced report differs from core.Analyze", name, opts.Refuter.Jobs)
			}
			if verdictRow(got) != verdictRow(want) || len(got.AllVerdicts) != len(want.AllVerdicts) {
				t.Errorf("%s: verdict row %q, want %q", name, verdictRow(got), verdictRow(want))
			}
			if _, err := buildLedger(tr.spans, isLayer); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

func mustParse(t *testing.T, raw []byte) *apk.App {
	t.Helper()
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestLedgerSums checks self-time attribution and the ledger's shape
// checks on hand-built spans.
func TestLedgerSums(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Op: 0, ID: 0, Parent: -1, Name: "op", Start: 0, End: 100 * ms},
		{Op: 0, ID: 1, Parent: 0, Name: "parse", Start: 0, End: 10 * ms},
		{Op: 0, ID: 2, Parent: 0, Name: "job", Start: 10 * ms, End: 98 * ms}, // structural
		{Op: 0, ID: 3, Parent: 2, Name: "harness", Start: 10 * ms, End: 60 * ms},
		{Op: 0, ID: 4, Parent: 2, Name: "refute", Start: 60 * ms, End: 95 * ms},
	}
	layer := func(n string) bool { return n != "job" }
	lg, err := buildLedger(spans, layer)
	if err != nil {
		t.Fatal(err)
	}
	if lg.ops != 1 || lg.wall != 100*ms || lg.other != 5*ms {
		t.Fatalf("ops %d wall %v other %v, want 1, 100ms, 5ms", lg.ops, lg.wall, lg.other)
	}
	if lg.self["parse"] != 10*ms || lg.self["harness"] != 50*ms || lg.self["refute"] != 35*ms {
		t.Fatalf("self times %v", lg.self)
	}

	overlap := append([]span(nil), spans...)
	overlap[4].Start = 50 * ms
	if _, err := buildLedger(overlap, layer); err == nil {
		t.Error("overlapping siblings must fail the ledger")
	}
	escape := append([]span(nil), spans...)
	escape[1].End = 120 * ms
	if _, err := buildLedger(escape, layer); err == nil {
		t.Error("a child outliving its parent must fail the ledger")
	}
	loose := append([]span(nil), spans...)
	loose[4].End = 80 * ms // 20ms unattributed > tolerance
	if _, err := buildLedger(loose, layer); err == nil {
		t.Error("unattributed time beyond the tolerance must fail the ledger")
	}
}

// TestServeEditTierSchedule runs one untraced and one traced schedule
// block against a live daemon: every revision must land on its planned
// tier in both the daemon and the replay, and every report must match
// the one-shot reference. The traced block's tier shares are the
// schedule's 1 : 5 : 9, and its cold replays are attributed to the layers.
func TestServeEditTierSchedule(t *testing.T) {
	res, err := runServeEdit(testConfig(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*len(editClasses) {
		t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	n := float64(len(editClasses))
	for name, want := range map[string]float64{
		"incremental.tier1_frac": 1 / n, "incremental.tier2_frac": 5 / n, "incremental.cold_frac": 9 / n,
	} {
		if got := res.Metrics[name].Value; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	for _, name := range []string{"harness.ms_per_app", "cgpa.ms_per_app", "shbg.ms_per_app", "pairs.ms_per_app", "refute.ms_per_app"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0 from the cold replays", name, res.Metrics[name].Value)
		}
	}
}

// TestServeEditBlocks checks the schedule itself over many blocks: each
// block submits every class once, each edit is the insert, removal or
// toggle its class names on the content it finds (remove-binop taking
// the last statement), and each block ends on its starting content but
// for the flipped branch.
func TestServeEditBlocks(t *testing.T) {
	sched := newSchedule(11)
	sched.next() // the cold baseline
	for b := 0; b < 50; b++ {
		start := sched.state
		seen := map[string]int{}
		for range editClasses {
			before := sched.state
			rev := sched.next()
			seen[rev.class]++
			after := rev.state
			bad := before == after
			if stmt, ok := sinkOf[rev.class]; ok {
				if strings.HasPrefix(rev.class, "insert-") {
					bad = bad || strings.Contains(before.stmts, stmt) || after.stmts != strings.TrimPrefix(before.stmts+"\n"+stmt, "\n")
				} else {
					bad = bad || !strings.Contains(before.stmts, stmt) || strings.Contains(after.stmts, stmt)
				}
			}
			switch rev.class {
			case "remove-binop":
				bad = bad || !strings.HasSuffix(before.stmts, binopStmt)
			case "insert-call", "remove-call":
				bad = bad || before.call != (rev.class == "remove-call")
			case "handler-add", "handler-remove":
				bad = bad || before.handler != (rev.class == "handler-remove")
			case "method-add", "method-remove":
				bad = bad || before.method != (rev.class == "method-remove")
			}
			if bad {
				t.Fatalf("block %d: %s does not apply to %+v (gives %+v)", b, rev.class, before, after)
			}
		}
		for _, c := range editClasses {
			if seen[c.name] != 1 {
				t.Fatalf("block %d: class %s submitted %d times", b, c.name, seen[c.name])
			}
		}
		if end := sched.state; end.ifZero == start.ifZero || end.apply("if-operand") != start {
			t.Fatalf("block %d ends on %+v, started on %+v", b, end, start)
		}
	}
}

// TestStreamSmallPinned runs one untraced and one traced pass of the
// stream-small config: both verdict tables must match the pinned digest.
func TestStreamSmallPinned(t *testing.T) {
	res, err := runStreamSmall(testConfig(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != 2*streamApps {
		t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, l := range perLayer {
		if _, ok := res.Metrics[l.name]; !ok {
			t.Errorf("missing per-layer metric %s", l.name)
		}
	}
}

// TestStreamSeedsPinned: every benchmark seed selects a corpus seed
// whose verdict digest is pinned.
func TestStreamSeedsPinned(t *testing.T) {
	golden, err := loadGolden(goldenStreamSmall)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{-65, -1, 0, 1, 63, 64, 1000, 1 << 40} {
		if _, ok := golden[fmt.Sprint(streamCorpusSeed(seed))]; !ok {
			t.Errorf("seed %d maps to corpus seed %d, which has no pinned digest", seed, streamCorpusSeed(seed))
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric and workload lists in
// step with what the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("%d workloads declared, %d implemented", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("declared workload %s is not implemented", w.Name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Errorf("%s: %d declared, %d reported", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: declared %s (%s), reported %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
