package pointer_test

import (
	"bufio"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/obs"
	"sierra/internal/pointer"
)

// goldenPolicies are the five context policies the golden dumps cover.
var goldenPolicies = []pointer.Policy{
	pointer.Insensitive{},
	pointer.KCFA{K: 2},
	pointer.KObj{K: 2},
	pointer.Hybrid{K: 2},
	pointer.ActionSensitivePolicy{K: 2},
}

// goldenCase is one app analyzed under one policy.
type goldenCase struct {
	name string
	app  func() *apk.App
	pol  pointer.Policy
}

// goldenCases lists the 20 paper apps under action+hybrid-2, and the
// four handmade apps and seed 0 of every scenario family under all five
// policies.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, row := range corpus.PaperRows() {
		row := row
		out = append(out, goldenCase{row.Name, func() *apk.App {
			app, _ := corpus.NamedApp(row)
			return app
		}, pointer.ActionSensitivePolicy{K: 2}})
	}
	apps := []struct {
		name string
		app  func() *apk.App
	}{
		{"NewsApp", corpus.NewsApp},
		{"DatabaseApp", corpus.DatabaseApp},
		{"SudokuTimerApp", corpus.SudokuTimerApp},
		{"NullGuardApp", corpus.NullGuardApp},
	}
	for _, sc := range corpus.Scenarios() {
		sc := sc
		name := sc.Name + "-0"
		apps = append(apps, struct {
			name string
			app  func() *apk.App
		}{name, func() *apk.App {
			app, _ := sc.Generate(name, 0, nil)
			return app
		}})
	}
	for _, a := range apps {
		for _, pol := range goldenPolicies {
			out = append(out, goldenCase{a.name, a.app, pol})
		}
	}
	return out
}

// dumpHash analyzes one case the way the pipeline does and hashes the
// canonical dump of its result.
func dumpHash(c goldenCase) string {
	app := c.app()
	tr := obs.New("golden")
	_, _, w := actions.AnalyzeSolverWarm(nil, app, harness.Generate(app), c.pol, pointer.SolverDelta, 0, tr)
	h := fnv.New64a()
	h.Write([]byte(pointer.DumpWarm(w, tr)))
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestResultGolden pins the points-to result of every golden case to
// the hash recorded in testdata/golden.tsv: the pass count, every
// discovery and edge order, every set, the interner's object order and
// every pointer.* counter and gauge. The two-solver parity tests cannot
// see a change that moves both solvers the same way; this test can.
func TestResultGolden(t *testing.T) {
	want := readGolden(t)
	var missing []string
	for _, c := range goldenCases() {
		key := c.name + "\t" + c.pol.Name()
		got := dumpHash(c)
		w, ok := want[key]
		switch {
		case !ok:
			missing = append(missing, key+"\t"+got)
		case w != got:
			t.Errorf("%s under %s: dump hash %s, want %s", c.name, c.pol.Name(), got, w)
		}
	}
	if len(missing) > 0 {
		t.Errorf("no golden hash for %d cases; rows:\n%s", len(missing), strings.Join(missing, "\n"))
	}
}

// readGolden loads testdata/golden.tsv: app, policy, hash per line.
func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open("testdata/golden.tsv")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 3 {
			t.Fatalf("golden.tsv: bad row %q", sc.Text())
		}
		out[fields[0]+"\t"+fields[1]] = fields[2]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
