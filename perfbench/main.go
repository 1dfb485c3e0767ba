// Command perfbench is the repository's end-to-end benchmark: three fixed
// closed-loop workloads over the SIERRA pipeline, each checked against
// pinned or freshly computed outputs, with an optional traced run that
// builds a per-layer ledger from spans recorded around every public
// layer call.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload paper20|stream-small|serve-edit --seed N --seconds S --trace 0|1
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics untraced, the per-layer metrics
// traced. Lines before it print every end-to-end metric with its unit
// and sample count. The exit code is non-zero on any output mismatch.
// Traced runs also write their spans to .bench_build/trace/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	// record prints the workload's pinned verdict lines for this seed
	// instead of measuring (to re-pin testdata after an intended verdict
	// change).
	record bool
	// traceDir receives a traced run's span file.
	traceDir string
	logf     func(format string, args ...any)
}

var workloads = map[string]func(runConfig) (result, error){
	"paper20":      runPaper20,
	"stream-small": runStreamSmall,
	"serve-edit":   runServeEdit,
}

func main() {
	var (
		workload = flag.String("workload", "", "paper20 | stream-small | serve-edit")
		seed     = flag.Int64("seed", 1, "workload seed")
		seconds  = flag.Float64("seconds", 10, "timed-phase length in seconds")
		trace    = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
		record   = flag.Bool("record", false, "print the pinned verdict lines for this seed and exit")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		os.Exit(2)
	}
	// Closed loops at the machine's width: every worker pool and
	// per-app kernel below is sized from GOMAXPROCS.
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg := runConfig{
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		record:   *record,
		traceDir: filepath.Join(".bench_build", "trace"),
		logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
		},
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if cfg.record {
		return
	}
	emit(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// result finishes an untraced run: print the end-to-end table, return
// the result line.
func (m e2e) result(name string) result {
	mm := m.metrics()
	printE2E(os.Stdout, name, m, mm)
	return result{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   mm,
	}
}

// traceResult finishes a traced run: write the spans, print the ledger,
// return the result line carrying the per-layer metrics.
func traceResult(cfg runConfig, name string, m e2e, tr *tracer, layers map[string]metric) (result, error) {
	path := filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", name, cfg.seed))
	if err := tr.write(path); err != nil {
		return result{}, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("workload %s traced: %d spans in %s\n", name, len(tr.spans), path)
	for _, l := range perLayer {
		fmt.Printf("  %-28s %12.4f %s\n", l.name, layers[l.name].Value, l.unit)
	}
	return result{
		Correct:   m.failed == 0 && m.attempted > 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   layers,
	}, nil
}

// loadGolden indexes a pinned table by each line's first tab-separated
// field; the value is the whole line.
func loadGolden(text string) (map[string]string, error) {
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		key, _, ok := strings.Cut(line, "\t")
		if !ok {
			return nil, errors.New("malformed pinned table line: " + line)
		}
		out[key] = line
	}
	return out, nil
}
