// Package metrics runs the paper's evaluation and assembles its tables:
// Table 2 (dataset), Table 3 (effectiveness), Table 4 (efficiency), and
// Table 5 (174-app medians). Rows mirror the paper's columns so output
// can be compared side by side.
package metrics

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"sierra/internal/apk"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/eventracer"
	"sierra/internal/obs"
	"sierra/internal/symexec"
)

// Row is one measured app: Table 3's columns plus Table 4's timings and
// the ground-truth classification of the surviving reports.
type Row struct {
	Name       string
	Harnesses  int
	Actions    int
	HBEdges    int
	OrderedPct float64
	RacyNoAS   int
	RacyAS     int
	AfterRefut int
	TrueRaces  int
	FP         int
	// EventRacer is the dynamic baseline's report count (-1 = not run).
	EventRacer int
	// Timings in seconds (Table 4 stages). Pairs is racy-pair
	// generation, Compare the optional plain-hybrid rerun; together with
	// CGPA, HBG, and Refutation they partition Total.
	CGPA, HBG, Pairs, Compare, Refutation, Total float64
	// Effort counters from the observability layer (Table 4's effort
	// columns; one source of truth with `sierra -stats`).
	PAPasses  int // pointer-analysis fixpoint passes
	PAIters   int // pointer worklist iterations (instances × passes)
	RefPaths  int // refutation paths explored
	RefPruned int // refutation paths pruned on contradictions/bounds
}

// Options tunes an evaluation run.
type Options struct {
	// WithDynamic also runs the EventRacer baseline.
	WithDynamic bool
	// Schedules / EventsPerSchedule configure the dynamic runs.
	Schedules         int
	EventsPerSchedule int
	// RefuteMaxPaths / RefuteMaxDepth bound the refuter's backward
	// exploration (0 = the paper's defaults, 5000 paths and depth 6).
	RefuteMaxPaths int
	RefuteMaxDepth int
	// Obs, when non-nil, absorbs each measured app's effort counters
	// (the per-app trace snapshot) — the batch runners point this at a
	// shared trace so `-stats`-style aggregates survive fan-out. Safe
	// for concurrent use.
	Obs *obs.Trace
}

// EvaluateApp runs the full static pipeline (and optionally the dynamic
// baseline) on an app produced by factory, classifying survivors against
// the ground truth.
func EvaluateApp(name string, factory func() (*apk.App, *corpus.GroundTruth), opts Options) Row {
	return EvaluateAppContext(nil, name, factory, opts)
}

// EvaluateAppContext is EvaluateApp with cooperative cancellation: the
// context is threaded into the pipeline (see core.AnalyzeContext), so a
// deadline yields a partial Row instead of a stuck evaluation. The
// dynamic baseline is skipped once the context is done.
func EvaluateAppContext(ctx context.Context, name string, factory func() (*apk.App, *corpus.GroundTruth), opts Options) Row {
	app, gt := factory()
	tr := obs.New(name)
	copts := opts.coreOptions()
	copts.Obs = tr
	res := core.AnalyzeContext(ctx, app, copts)

	row := Row{
		Name:       name,
		Harnesses:  res.NumHarnesses(),
		Actions:    res.NumActions(),
		HBEdges:    res.HBEdges(),
		OrderedPct: res.OrderedPercent(),
		RacyNoAS:   res.RacyPairsNoAS,
		RacyAS:     len(res.RacyPairs),
		AfterRefut: res.TrueRaces(),
		EventRacer: -1,
		CGPA:       res.Timing.CGPA.Seconds(),
		HBG:        res.Timing.HBG.Seconds(),
		Pairs:      res.Timing.Pairs.Seconds(),
		Compare:    res.Timing.Compare.Seconds(),
		Refutation: res.Timing.Refutation.Seconds(),
		Total:      res.Timing.Total.Seconds(),
		PAPasses:   int(tr.Counter("pointer.passes")),
		PAIters:    int(tr.Counter("pointer.worklist_iterations")),
		RefPaths:   int(tr.Counter("refute.paths")),
		RefPruned:  int(tr.Counter("refute.paths_pruned")),
	}
	for _, r := range res.Reports {
		if gt.Classify(r.Pair.A.Field) == "true" {
			row.TrueRaces++
		} else {
			row.FP++
		}
	}
	if opts.WithDynamic && (ctx == nil || ctx.Err() == nil) {
		races := eventracer.Detect(func() *apk.App {
			a, _ := factory()
			return a
		}, eventracer.Options{
			Schedules:         opts.Schedules,
			EventsPerSchedule: opts.EventsPerSchedule,
			Seed:              1,
		})
		// Count racy event pairs (EventRacer's report granularity), not
		// per-field findings: one unordered event pair racing on many
		// fields is one report.
		pairs := map[string]bool{}
		for _, r := range races {
			pairs[r.Labels[0]+"|"+r.Labels[1]] = true
		}
		row.EventRacer = len(pairs)
	}
	opts.Obs.Absorb(tr.Snapshot())
	return row
}

// coreOptions is the analysis configuration every measured app runs
// under: the default action-sensitive policy with the plain-hybrid
// comparison rerun, and the configured refutation budgets.
func (o Options) coreOptions() core.Options {
	return core.Options{
		CompareContexts: true,
		Refuter:         symexec.Config{MaxPaths: o.RefuteMaxPaths, MaxDepth: o.RefuteMaxDepth},
	}
}

// EvaluateNamed measures one named-dataset app.
func EvaluateNamed(pr corpus.PaperRow, opts Options) Row {
	return EvaluateApp(pr.Name, func() (*apk.App, *corpus.GroundTruth) {
		return corpus.NamedApp(pr)
	}, opts)
}

// EvaluateFDroid measures one generated-dataset app.
func EvaluateFDroid(i int, opts Options) Row {
	name := corpus.FDroidRow(i).Name
	return EvaluateApp(name, func() (*apk.App, *corpus.GroundTruth) {
		return corpus.FDroidApp(i)
	}, opts)
}

// Median computes the median of a float slice (0 for empty).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// MedianRow aggregates per-column medians over measured rows.
func MedianRow(rows []Row) Row {
	pick := func(f func(Row) float64) float64 {
		xs := make([]float64, 0, len(rows))
		for _, r := range rows {
			xs = append(xs, f(r))
		}
		return Median(xs)
	}
	pickER := func() int {
		var xs []float64
		for _, r := range rows {
			if r.EventRacer >= 0 {
				xs = append(xs, float64(r.EventRacer))
			}
		}
		if len(xs) == 0 {
			return -1
		}
		return int(Median(xs))
	}
	return Row{
		Name:       "Median",
		Harnesses:  int(pick(func(r Row) float64 { return float64(r.Harnesses) })),
		Actions:    int(pick(func(r Row) float64 { return float64(r.Actions) })),
		HBEdges:    int(pick(func(r Row) float64 { return float64(r.HBEdges) })),
		OrderedPct: pick(func(r Row) float64 { return r.OrderedPct }),
		RacyNoAS:   int(pick(func(r Row) float64 { return float64(r.RacyNoAS) })),
		RacyAS:     int(pick(func(r Row) float64 { return float64(r.RacyAS) })),
		AfterRefut: int(pick(func(r Row) float64 { return float64(r.AfterRefut) })),
		TrueRaces:  int(pick(func(r Row) float64 { return float64(r.TrueRaces) })),
		FP:         int(pick(func(r Row) float64 { return float64(r.FP) })),
		EventRacer: pickER(),
		CGPA:       pick(func(r Row) float64 { return r.CGPA }),
		HBG:        pick(func(r Row) float64 { return r.HBG }),
		Pairs:      pick(func(r Row) float64 { return r.Pairs }),
		Compare:    pick(func(r Row) float64 { return r.Compare }),
		Refutation: pick(func(r Row) float64 { return r.Refutation }),
		Total:      pick(func(r Row) float64 { return r.Total }),
		PAPasses:   int(pick(func(r Row) float64 { return float64(r.PAPasses) })),
		PAIters:    int(pick(func(r Row) float64 { return float64(r.PAIters) })),
		RefPaths:   int(pick(func(r Row) float64 { return float64(r.RefPaths) })),
		RefPruned:  int(pick(func(r Row) float64 { return float64(r.RefPruned) })),
	}
}

// FormatTable2 renders the dataset table: paper metadata plus the
// generated model's actual size.
func FormatTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: App popularity and size for the 20-app dataset\n")
	fmt.Fprintf(&b, "%-16s %-28s %12s %12s\n", "App", "Installs", "dex KB(paper)", "model KB")
	for _, r := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(r)
		fmt.Fprintf(&b, "%-16s %-28s %12d %12d\n", r.Name, r.Installs, r.SizeKB, app.BytecodeSize()/1024)
	}
	return b.String()
}

// FormatTable3 renders effectiveness rows next to the paper's values.
func FormatTable3(rows []Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 3: SIERRA effectiveness (measured | paper)")
	fmt.Fprintf(&b, "%-16s %9s %9s %10s %8s %11s %11s %9s %9s %7s %6s\n",
		"App", "Harness", "Actions", "HB edges", "Ord%", "Racy w/o AS", "Racy w/ AS", "AfterRef", "True", "FP", "ER")
	for _, r := range rows {
		pr, ok := corpus.RowByName(r.Name)
		paper := func(v int) string {
			if !ok {
				return ""
			}
			return fmt.Sprintf("|%d", v)
		}
		er := fmt.Sprintf("%d", r.EventRacer)
		if r.EventRacer < 0 {
			er = "-"
		}
		perER := ""
		if ok {
			if pr.EventRacer >= 0 {
				perER = fmt.Sprintf("|%d", pr.EventRacer)
			} else {
				perER = "|-"
			}
		}
		fmt.Fprintf(&b, "%-16s %9s %9s %10s %8s %11s %11s %9s %9s %7s %6s\n",
			r.Name,
			fmt.Sprintf("%d%s", r.Harnesses, paper(pr.Harnesses)),
			fmt.Sprintf("%d%s", r.Actions, paper(pr.Actions)),
			fmt.Sprintf("%d%s", r.HBEdges, paper(pr.HBEdges)),
			fmt.Sprintf("%.0f%s", r.OrderedPct, paper(pr.OrderedPct)),
			fmt.Sprintf("%d%s", r.RacyNoAS, paper(pr.RacyNoAS)),
			fmt.Sprintf("%d%s", r.RacyAS, paper(pr.RacyAS)),
			fmt.Sprintf("%d%s", r.AfterRefut, paper(pr.AfterRefutation)),
			fmt.Sprintf("%d%s", r.TrueRaces, paper(pr.TrueRaces)),
			fmt.Sprintf("%d%s", r.FP, paper(pr.FP)),
			er+perER,
		)
	}
	m := MedianRow(rows)
	fmt.Fprintf(&b, "%-16s %9d %9d %10d %8.0f %11d %11d %9d %9d %7d %6d\n",
		"Median", m.Harnesses, m.Actions, m.HBEdges, m.OrderedPct,
		m.RacyNoAS, m.RacyAS, m.AfterRefut, m.TrueRaces, m.FP, m.EventRacer)
	fmt.Fprintf(&b, "%-16s %9s %9d %10d %8s %11d %11s %9d %9s %7s %6d\n",
		"Median (paper)", "10.5", 160, 2755, "22", 431, "80.5", 33, "29.5", "8.5", 4)
	return b.String()
}

// FormatTable4 renders per-stage timings plus the effort columns the
// observability layer measures (pointer passes/iterations, refutation
// paths explored/pruned).
func FormatTable4(rows []Row) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Table 4: SIERRA efficiency (seconds per stage; paper medians: CG+PA 1310, HBG 28.5, Refutation 560.5, Total 1899 on 2017 APKs)")
	fmt.Fprintf(&b, "%-16s %9s %8s %8s %8s %11s %9s %9s %10s %10s %10s\n",
		"App", "CG+PA", "HBG", "Pairs", "Compare", "Refutation", "Total", "PApasses", "PAiters", "refPaths", "refPruned")
	line := func(name string, r Row) {
		fmt.Fprintf(&b, "%-16s %9.3f %8.3f %8.3f %8.3f %11.3f %9.3f %9d %10d %10d %10d\n",
			name, r.CGPA, r.HBG, r.Pairs, r.Compare, r.Refutation, r.Total,
			r.PAPasses, r.PAIters, r.RefPaths, r.RefPruned)
	}
	for _, r := range rows {
		line(r.Name, r)
	}
	line("Median", MedianRow(rows))
	return b.String()
}

// FormatTable5 renders the large-corpus medians next to the paper's.
func FormatTable5(rows []Row, sizes []int) string {
	m := MedianRow(rows)
	var szs []float64
	for _, s := range sizes {
		szs = append(szs, float64(s))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 5: SIERRA on the %d-app dataset (medians; measured | paper)\n", len(rows))
	fmt.Fprintf(&b, "%-22s %14s %14s\n", "Metric", "measured", "paper")
	line := func(name string, got, paper string) {
		fmt.Fprintf(&b, "%-22s %14s %14s\n", name, got, paper)
	}
	line("bytecode size (KB)", fmt.Sprintf("%.0f", Median(szs)/1024), "1114")
	line("harnesses", fmt.Sprintf("%d", m.Harnesses), "4.5")
	line("actions", fmt.Sprintf("%d", m.Actions), "67.5")
	line("HB edges", fmt.Sprintf("%d", m.HBEdges), "1223")
	line("ordered (%)", fmt.Sprintf("%.1f", m.OrderedPct), "17.3")
	line("racy pairs (w/ AS)", fmt.Sprintf("%d", m.RacyAS), "68")
	line("after refutation", fmt.Sprintf("%d", m.AfterRefut), "43.5")
	line("CG+PA (s)", fmt.Sprintf("%.3f", m.CGPA), "139")
	line("HBG (s)", fmt.Sprintf("%.3f", m.HBG), "27")
	line("refutation (s)", fmt.Sprintf("%.3f", m.Refutation), "648")
	line("total (s)", fmt.Sprintf("%.3f", m.Total), "960")
	return b.String()
}
