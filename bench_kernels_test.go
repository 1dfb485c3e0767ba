// Kernel benchmarks for the per-app pipeline: parsing, harness callback
// discovery and the points-to fixpoint on paper apps (whose program
// text is mostly padding no entry reaches), and the dense-ID/bitset
// kernels (pointer worklist, SHBG build+closure, racy-pair
// intersection, per-pair refutation) on a synthetic large app (hundreds
// of actions, >1k accesses, no padding) where the per-app inner loops
// dominate — the costs the paper reports driving SIERRA's 40-minute
// median runtime (§6), plus serve's per-revision fingerprint. Each
// bench's doc comment names the benchmark ledger layer it models
// (parse, harness, cgpa, shbg, pairs, refute, incremental.fingerprint),
// so a kernel delta can be weighed by that layer's share of wall clock.
//
// BenchmarkKernelAttribution lives in internal/actions, where it can
// call the attribution that Registry.ActionInstances memoizes. Run both
// packages:
//
//	go test -bench 'BenchmarkKernel' -benchmem . ./internal/actions
//
// scripts/benchdiff.sh <ref> compares their medians with another
// commit and appends them to BENCH_trajectory.json.
package sierra

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/incremental"
	"sierra/internal/pointer"
	"sierra/internal/race"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// synthLargeApp generates the macro-benchmark workload: ≥64 actions and
// ≥1k accesses (the probe sizes land at ~231 actions / ~1.4k accesses).
func synthLargeApp() *apk.App { return corpus.SynthLarge() }

// synthAnalyzed runs the pipeline front half once (shared fixture for
// the downstream kernels).
func synthAnalyzed(b *testing.B) (*actions.Registry, *pointer.Result) {
	b.Helper()
	app := synthLargeApp()
	hs := harness.Generate(app)
	return actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
}

// paperAppBytes serializes one named paper app.
func paperAppBytes(b *testing.B, name string) []byte {
	b.Helper()
	row, ok := corpus.RowByName(name)
	if !ok {
		b.Fatalf("%s missing from the corpus", name)
	}
	app, _ := corpus.NamedApp(row)
	raw, err := appfile.Bytes(app)
	if err != nil {
		b.Fatal(err)
	}
	return raw
}

// BenchmarkKernelParse measures appfile.Read — the one-pass reader plus
// framework install, Finalize and Validate — on Astrid, the largest
// paper app, from its serialized bytes. Nearly all of its ~217k lines
// are padding no entry reaches, repeats of a few statement lines that
// the reader parses once and shares, so allocs/op track distinct lines
// (~41k) while time still tracks program text: every line is cut,
// trimmed and looked up. Layer: parse.
func BenchmarkKernelParse(b *testing.B) {
	raw := paperAppBytes(b, "Astrid")
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := appfile.Read(bytes.NewReader(raw)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernelPointerPaper measures the points-to fixpoint with
// action discovery on K-9Mail, a paper app whose program text is mostly
// unreachable padding — the shape the padding-free synthetic app of
// BenchmarkKernelPointerWorklist cannot show. Each iteration parses a
// fresh app and generates its harnesses with the timer stopped, then
// collects that garbage before timing. Layer: cgpa.
func BenchmarkKernelPointerPaper(b *testing.B) {
	raw := paperAppBytes(b, "K-9Mail")
	b.ReportAllocs()
	b.ResetTimer()
	var reg *actions.Registry
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		app, err := appfile.Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		hs := harness.Generate(app)
		runtime.GC()
		b.StartTimer()
		reg, _ = actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	}
	b.ReportMetric(float64(len(reg.Actions())), "actions")
}

// BenchmarkKernelHarness measures harness generation — the per-activity
// callback-discovery fixpoint, one class-hierarchy call graph per
// activity growing round by round, each round scanning only the methods
// it newly reaches — on NPRNews, the paper app whose discovery reaches
// the most code. Each iteration parses a fresh app from its serialized
// bytes with the timer stopped, since Generate registers its synthetic
// classes in the program, and collects the parse garbage before timing.
// Layer: harness.
func BenchmarkKernelHarness(b *testing.B) {
	raw := paperAppBytes(b, "NPRNews")
	b.ReportAllocs()
	b.ResetTimer()
	var hs []*harness.Harness
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		app, err := appfile.Read(bytes.NewReader(raw))
		if err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		b.StartTimer()
		hs = harness.Generate(app)
	}
	_, slots, _ := harness.Stats(hs)
	b.ReportMetric(float64(len(hs)), "harnesses")
	b.ReportMetric(float64(slots), "guiSlots")
}

// BenchmarkKernelPointerWorklist measures the points-to fixpoint
// (worklist plus action discovery) on the synthetic large app — the
// pts/fpts/spts propagation loops. Layer: cgpa.
func BenchmarkKernelPointerWorklist(b *testing.B) {
	app := synthLargeApp()
	hs := harness.Generate(app)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	}
}

// BenchmarkKernelSHBGBuild measures full SHBG construction: rules 1–5
// plus the rule-6/7 closure iteration. Layer: shbg.
func BenchmarkKernelSHBGBuild(b *testing.B) {
	reg, res := synthAnalyzed(b)
	b.ReportAllocs()
	b.ResetTimer()
	var g *shbg.Graph
	for i := 0; i < b.N; i++ {
		g = shbg.Build(reg, res, shbg.Options{})
	}
	b.ReportMetric(float64(g.NumActions()), "actions")
	b.ReportMetric(float64(g.NumEdges()), "hbEdges")
}

// BenchmarkKernelSHBGClosure isolates the closure-dominated
// configuration: every pairwise-dominance rule disabled except
// invocation and inter-action, so the rule-6/7 fixpoint (the n³ part)
// is the measured work. Layer: shbg.
func BenchmarkKernelSHBGClosure(b *testing.B) {
	reg, res := synthAnalyzed(b)
	disable := map[shbg.Rule]bool{
		shbg.RuleIntraProc: true, shbg.RuleInterProc: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shbg.Build(reg, res, shbg.Options{Disable: disable})
	}
}

// BenchmarkKernelRacyPairs measures the same-field intersection loop
// (alias word-AND + HB bit tests + dedup) over the collected accesses.
// Layer: pairs.
func BenchmarkKernelRacyPairs(b *testing.B) {
	reg, res := synthAnalyzed(b)
	g := shbg.Build(reg, res, shbg.Options{})
	accs := race.CollectAccesses(reg, res)
	b.ReportAllocs()
	b.ResetTimer()
	var pairs []race.Pair
	for i := 0; i < b.N; i++ {
		pairs = race.RacyPairs(reg, g, accs)
	}
	b.ReportMetric(float64(len(accs)), "accesses")
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkKernelPairsPaper measures access collection and racy-pair
// generation on NPRNews over a pre-solved points-to result: a paper app
// with hot fields, where the same-field combinations outnumber the
// aliasing ones ~200 to 1 — the shape SynthLarge, with no hot field,
// cannot show. Access collection reuses the registry's memoized action
// attribution after the first iteration. Layer: pairs.
func BenchmarkKernelPairsPaper(b *testing.B) {
	app, err := appfile.Read(bytes.NewReader(paperAppBytes(b, "NPRNews")))
	if err != nil {
		b.Fatal(err)
	}
	reg, res := actions.Analyze(app, harness.Generate(app), pointer.ActionSensitivePolicy{K: 2})
	g := shbg.Build(reg, res, shbg.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	var accs []race.Access
	var pairs []race.Pair
	for i := 0; i < b.N; i++ {
		accs = race.CollectAccesses(reg, res)
		pairs = race.RacyPairs(reg, g, accs)
	}
	b.ReportMetric(float64(len(accs)), "accesses")
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkKernelFingerprint measures incremental.Compute — the shape
// and per-method Full/Skeleton digests serve takes of every revision
// before it plans a warm landing — on a parsed 24-group StageDemo, the
// app perfbench's serve-edit lineage edits. Layer:
// incremental.fingerprint.
func BenchmarkKernelFingerprint(b *testing.B) {
	app, err := appfile.Read(bytes.NewReader(corpus.StageDemoText(24, corpus.StageDemoEdit{})))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var fp *incremental.Fingerprint
	for i := 0; i < b.N; i++ {
		fp = incremental.Compute(app)
	}
	b.ReportMetric(float64(len(fp.Methods)), "methods")
}

// BenchmarkKernelRefutation measures symbolic refutation of every
// candidate by one refuter's Check loop, each pair from empty memos
// (the per-pair work CheckAll's workers do). Layer: refute.
func BenchmarkKernelRefutation(b *testing.B) {
	reg, res := synthAnalyzed(b)
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref := symexec.NewRefuter(reg, res, symexec.Config{})
		for _, p := range pairs {
			ref.Check(p)
		}
	}
	b.ReportMetric(float64(len(pairs)), "pairs")
}

// BenchmarkKernelRefutationParallel measures CheckAll at increasing
// worker counts; every width computes the same verdicts, so the lanes
// compare one kernel at different widths. Layer: refute.
func BenchmarkKernelRefutationParallel(b *testing.B) {
	reg, res := synthAnalyzed(b)
	g := shbg.Build(reg, res, shbg.Options{})
	pairs := race.RacyPairs(reg, g, race.CollectAccesses(reg, res))
	for _, jobs := range []int{1, 2, 4, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				symexec.CheckAll(reg, res, symexec.Config{Jobs: jobs}, pairs)
			}
			b.ReportMetric(float64(len(pairs)), "pairs")
		})
	}
}
