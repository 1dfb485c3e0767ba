// Command corpusgen emits corpus apps in the textual .app format so the
// synthetic datasets can be inspected (or re-analyzed via sierra -file).
//
//	corpusgen -app OpenSudoku             # one named app to stdout
//	corpusgen -fdroid 17                  # one generated app to stdout
//	corpusgen -all -out corpus/           # every named app into a dir
//	corpusgen -list-scenarios             # the scenario-family catalog
//	corpusgen -config corpus.cfg -out dir/   # materialize a config-driven corpus
//	corpusgen -stagedemo 8                # generated incremental-lane app
//	corpusgen -stagedemo 8 -stagedemo-edit "load w a f1_0"   # edited revision
//
// Config-driven mode reads the same scenario config as `sierra
// -stream` (named families, weights, per-family knobs, an app count
// and/or a `tot-size` byte budget) and writes the admitted stream to
// -out as zero-padded .app files — the exact corpus a fused `sierra
// -stream` run of that config analyzes, byte for byte. -gen-jobs
// parallelizes generation without changing the output.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/corpus"
	"sierra/internal/stream"
)

func main() {
	var (
		appName   = flag.String("app", "", "named dataset app")
		fdroid    = flag.Int("fdroid", -1, "generated dataset index")
		all       = flag.Bool("all", false, "emit every named app")
		out       = flag.String("out", "", "output directory (with -all or -config) or file")
		listScen  = flag.Bool("list-scenarios", false, "print the scenario-family catalog and exit")
		config    = flag.String("config", "", "materialize a scenario config (see -list-scenarios) into -out DIR")
		genJobs   = flag.Int("gen-jobs", 0, "generation workers with -config (0 = GOMAXPROCS; output is identical at any count)")
		stagedemo = flag.Int("stagedemo", 0, "emit the generated StageDemo app with this many listener groups")
		stageEdit = flag.String("stagedemo-edit", "", "with -stagedemo: insert this statement into the guarded listener of group 0 (a skeleton-visible one-method edit, e.g. \"load w a f1_0\")")
	)
	flag.Parse()

	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "corpusgen:", err)
		os.Exit(1)
	}

	if *listScen {
		listScenarios()
		return
	}

	if *config != "" {
		if *out == "" {
			fail(fmt.Errorf("-config needs -out DIR"))
		}
		if err := materializeConfig(*config, *out, *genJobs); err != nil {
			fail(err)
		}
		return
	}

	if *all {
		if *out == "" {
			fail(fmt.Errorf("-all needs -out DIR"))
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fail(err)
		}
		for _, row := range corpus.PaperRows() {
			app, _ := corpus.NamedApp(row)
			f, err := os.Create(filepath.Join(*out, row.Name+".app"))
			if err != nil {
				fail(err)
			}
			if err := appfile.Write(f, app); err != nil {
				fail(err)
			}
			if err := f.Close(); err != nil {
				fail(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s.app\n", row.Name)
		}
		return
	}

	if *stagedemo > 0 {
		raw := corpus.StageDemoText(*stagedemo, corpus.StageDemoEdit{ExtraStmt: *stageEdit})
		if *out == "" {
			os.Stdout.Write(raw)
			return
		}
		if err := os.WriteFile(*out, raw, 0o644); err != nil {
			fail(err)
		}
		return
	}

	var app *apk.App
	switch {
	case *appName != "":
		row, ok := corpus.RowByName(*appName)
		if !ok {
			fail(fmt.Errorf("unknown app %q", *appName))
		}
		app, _ = corpus.NamedApp(row)
	case *fdroid >= 0:
		app, _ = corpus.FDroidApp(*fdroid)
	default:
		fail(fmt.Errorf("pick one of -app, -fdroid, -all"))
	}

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		w = f
	}
	if err := appfile.Write(w, app); err != nil {
		fail(err)
	}
}

// listScenarios prints the scenario-family catalog: one row per family
// with its default mix weight, tunable knobs (name=default[min,max]),
// and a one-line description. The same names and knobs are what a
// scenario config's `scenario` directives accept, within those ranges.
func listScenarios() {
	fmt.Printf("%-18s %6s  %-70s %s\n", "FAMILY", "WEIGHT", "KNOBS (name=default[min,max])", "DESCRIPTION")
	for _, s := range corpus.Scenarios() {
		knobs := make([]string, len(s.Knobs))
		for i, k := range s.Knobs {
			knobs[i] = fmt.Sprintf("%s=%d[%d,%d]", k.Name, k.Default, k.Min, k.Max)
		}
		kv := strings.Join(knobs, " ")
		if kv == "" {
			kv = "-"
		}
		fmt.Printf("%-18s %6d  %-70s %s\n", s.Name, s.Weight, kv, s.Desc)
	}
}

// materializeConfig writes the config's admitted app stream into dir as
// zero-padded .app files. Generation runs on the same fused source as
// `sierra -stream` — genJobs workers, in-order budgeted admission — so
// the directory holds exactly the apps a streamed analysis of this
// config would see.
func materializeConfig(path, dir string, genJobs int) error {
	c, err := stream.LoadConfig(path)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if genJobs <= 0 {
		genJobs = runtime.GOMAXPROCS(0)
	}
	write := func(_ context.Context, name string, raw []byte) ([]byte, error) {
		return nil, os.WriteFile(filepath.Join(dir, name+".app"), raw, 0o644)
	}
	src := stream.NewSource(c, write, stream.SourceOptions{GenJobs: genJobs})
	defer src.Stop()
	results, err := batch.RunSource(nil, src, batch.Options{Workers: genJobs})
	if err != nil {
		return err
	}
	for _, r := range results {
		if r.Status != batch.StatusOK {
			return fmt.Errorf("writing %s: %s (%v)", r.Name, r.Status, r.Err)
		}
	}
	apps, bytes := src.Emitted()
	fmt.Fprintf(os.Stderr, "corpusgen: wrote %d apps (%d bytes) from %s to %s\n", apps, bytes, c.Name, dir)
	return nil
}
