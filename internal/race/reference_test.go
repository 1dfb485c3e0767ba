package race

import (
	"fmt"
	"sort"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/shbg"
)

// refRacyPairs is pair generation without the alias index: every
// same-field combination (cold), or every same-field combination
// touching an edited position (delta), runs the whole filter chain. The
// equality checks hold racyPairsImpl to it, pairs and funnel counters
// alike.
func refRacyPairs(reg *actions.Registry, g *shbg.Graph, accesses []Access, edited map[*ir.Method]bool, prev []Pair, tr *obs.Trace) []Pair {
	var considered, aliasHits, hbFiltered int64
	var out []Pair
	seen := map[pairKey]bool{}
	chain := func(a, b *Access) {
		if a.Action == b.Action {
			return
		}
		considered++
		if a.Kind != Write && b.Kind != Write {
			return
		}
		if a.Static != b.Static {
			return
		}
		if a.Static {
			if a.Class != b.Class {
				return
			}
		} else if !a.Objs.Intersects(b.Objs) {
			return
		}
		aliasHits++
		if !actions.SameScope(reg.Get(a.Action), reg.Get(b.Action)) {
			return
		}
		if g.Ordered(a.Action, b.Action) {
			hbFiltered++
			return
		}
		p := Pair{A: *a, B: *b}
		if a.Action > b.Action {
			p = Pair{A: *b, B: *a}
		}
		k := pairKey{p.A.Action, p.A.Pos, p.B.Action, p.B.Pos, p.A.Field}
		if !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	fields := map[string]bool{}
	if edited != nil {
		type apKey struct {
			action int
			pos    ir.Pos
		}
		idxByAP := map[apKey]int{}
		for i := range accesses {
			idxByAP[apKey{accesses[i].Action, accesses[i].Pos}] = i
			if edited[accesses[i].Pos.Method] {
				fields[accesses[i].Field] = true
			}
		}
		for _, p := range prev {
			if edited[p.A.Pos.Method] || edited[p.B.Pos.Method] {
				continue
			}
			i, okA := idxByAP[apKey{p.A.Action, p.A.Pos}]
			j, okB := idxByAP[apKey{p.B.Action, p.B.Pos}]
			if !okA || !okB {
				continue
			}
			np := Pair{A: accesses[i], B: accesses[j]}
			k := pairKey{np.A.Action, np.A.Pos, np.B.Action, np.B.Pos, np.A.Field}
			if !seen[k] {
				seen[k] = true
				out = append(out, np)
			}
		}
	}
	byField := map[string][]int{}
	for i := range accesses {
		if edited == nil || fields[accesses[i].Field] {
			byField[accesses[i].Field] = append(byField[accesses[i].Field], i)
		}
	}
	for _, idxs := range byField {
		for i := 0; i < len(idxs); i++ {
			for j := i + 1; j < len(idxs); j++ {
				a, b := &accesses[idxs[i]], &accesses[idxs[j]]
				if edited != nil && !edited[a.Pos.Method] && !edited[b.Pos.Method] {
					continue
				}
				chain(a, b)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key() < out[j].Key() })
	tr.Count("race.pairs_considered", considered)
	tr.Count("race.alias_hits", aliasHits)
	tr.Count("race.hb_filtered", hbFiltered)
	tr.Count("race.pairs_emitted", int64(len(out)))
	return out
}

// refIsRef is setIsRef's flag computed over the canonical object slice.
func refIsRef(res *pointer.Result, acc *Access) bool {
	if acc.Static {
		return res.StaticPointsTo(acc.Class, acc.Field).Len() > 0
	}
	for _, o := range acc.Objs.Slice() {
		if res.FieldPointsTo(o, acc.Field).Len() > 0 {
			return true
		}
	}
	return false
}

var funnel = []string{"race.pairs_considered", "race.alias_hits", "race.hb_filtered", "race.pairs_emitted"}

// pairsDiff describes the first difference between two pair tables
// and their funnel counters, or returns "".
func pairsDiff(got, want []Pair, gotTr, wantTr *obs.Trace) string {
	for _, c := range funnel {
		if g, w := gotTr.Counter(c), wantTr.Counter(c); g != w {
			return fmt.Sprintf("%s = %d, want %d", c, g, w)
		}
	}
	if len(got) != len(want) {
		return fmt.Sprintf("%d pairs, want %d", len(got), len(want))
	}
	for i := range got {
		if g, w := fmt.Sprintf("%+v", got[i]), fmt.Sprintf("%+v", want[i]); g != w {
			return fmt.Sprintf("pair %d:\n  got  %s\n  want %s", i, g, w)
		}
	}
	return ""
}

// checkPairsMatchReference runs the pipeline up to racy pairs on app
// and holds the cold and delta generators to the reference, and the
// collected accesses to the canonical order and the reference IsRef.
// It returns the accesses.
func checkPairsMatchReference(t *testing.T, name string, app *apk.App) []Access {
	t.Helper()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	g := shbg.Build(reg, res, shbg.Options{})
	accs := CollectAccesses(reg, res)
	if !sort.SliceIsSorted(accs, func(i, j int) bool { return accessLess(&accs[i], &accs[j]) }) {
		t.Fatalf("%s: accesses out of canonical order", name)
	}
	for i := range accs {
		if got, want := accs[i].IsRef, refIsRef(res, &accs[i]); got != want {
			t.Fatalf("%s: %v IsRef = %t, want %t", name, accs[i], got, want)
		}
	}

	gotTr := obs.New("got")
	cold := RacyPairsTraced(reg, g, accs, gotTr)
	withRef := gotTr.Counter("race.pairs_considered") <= maxRefCombinations
	if withRef {
		wantTr := obs.New("want")
		if d := pairsDiff(cold, refRacyPairs(reg, g, accs, nil, nil, wantTr), gotTr, wantTr); d != "" {
			t.Fatalf("%s: cold: %s", name, d)
		}
	} else {
		t.Logf("%s: %d same-field combinations; reference skipped, delta checked against cold only", name, gotTr.Counter("race.pairs_considered"))
	}

	// Delta: with the baseline's own pairs as prev, any edited set must
	// reproduce the cold table; the counters must match the reference's
	// enumeration of the combinations touching the edited methods.
	var methods []*ir.Method
	inMethods := map[*ir.Method]bool{}
	for _, a := range accs {
		if !inMethods[a.Pos.Method] {
			inMethods[a.Pos.Method] = true
			methods = append(methods, a.Pos.Method)
		}
	}
	for _, stride := range []int{3, len(methods) + 1} {
		edited := map[*ir.Method]bool{}
		for i := 0; i < len(methods); i += stride {
			edited[methods[i]] = true
		}
		gotTr := obs.New("got")
		delta := RacyPairsDelta(reg, g, accs, cold, edited, gotTr)
		if withRef {
			wantTr := obs.New("want")
			want := refRacyPairs(reg, g, accs, edited, cold, wantTr)
			if d := pairsDiff(delta, want, gotTr, wantTr); d != "" {
				t.Fatalf("%s: delta (%d of %d methods edited): %s", name, len(edited), len(methods), d)
			}
		}
		if d := pairsDiff(delta, cold, gotTr, gotTr); d != "" {
			t.Fatalf("%s: delta (%d of %d methods edited) differs from cold: %s", name, len(edited), len(methods), d)
		}
	}
	return accs
}

// twoSiteApp allocates the activity's Data at two sites and registers
// the activity for clicks and long clicks; both callbacks write the
// Data's v, so their accesses share both objects — the one corpus
// shape where a partner is met through several index lists.
func twoSiteApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	data := ir.NewClass("Data", frontend.Object)
	data.Fields = []string{"v"}
	p.AddClass(data)
	act := ir.NewClass("A", frontend.ActivityClass, frontend.OnClickListener, frontend.OnLongClickListener)
	act.Fields = []string{"d"}
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.NewObj("x", "Data")
	b.NewObj("x", "Data")
	b.Store("this", "d", "x")
	b.Int("id", 1)
	b.Call("btn", "this", "A", frontend.FindViewByID, "id")
	b.Call("", "btn", frontend.ViewClass, frontend.SetOnClickListener, "this")
	b.Call("", "btn", frontend.ViewClass, frontend.SetOnLongClickListener, "this")
	b.Ret("")
	act.AddMethod(b.Build())
	for _, cb := range []string{frontend.OnClick, frontend.OnLongClick} {
		m := ir.NewMethodBuilder(cb, "v")
		m.Load("y", "this", "d")
		m.Int("c", 1)
		m.Store("y", "v", "c")
		m.Ret("")
		act.AddMethod(m.Build())
	}
	p.AddClass(act)
	p.Finalize()
	return &apk.App{
		Name:     "two-sites",
		Program:  p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "A"}}},
		Layouts:  map[string]*apk.Layout{},
	}
}

// maxRefCombinations bounds the reference's work per app: the
// all-combinations loop costs seconds per ten million same-field
// combinations, and the ten-fold family reaches 129M at some seeds.
const maxRefCombinations = 10_000_000

// tenfoldSeeds is how many seeds of the ten-fold scenario family,
// table2-x10, the reference check takes; every other family takes 8.
// The race detector build lowers it (reference_race_test.go).
var tenfoldSeeds int64 = 8

// TestPairsMatchReference holds pair generation to the all-combinations
// loop on the handmade figure apps, SynthLarge, the 20 paper apps and
// every scenario family at seeds 0–7; apps over maxRefCombinations
// check the delta path against the cold one only.
func TestPairsMatchReference(t *testing.T) {
	shared := false
	for _, a := range checkPairsMatchReference(t, "two-sites", twoSiteApp()) {
		shared = shared || a.Field == "v" && a.Objs.Len() == 2
	}
	if !shared {
		t.Error("two-sites: no access to v points to both Data objects")
	}
	checkPairsMatchReference(t, "newsapp", corpus.NewsApp())
	checkPairsMatchReference(t, "dbapp", corpus.DatabaseApp())
	checkPairsMatchReference(t, "sudoku", corpus.SudokuTimerApp())
	checkPairsMatchReference(t, "nullguard", corpus.NullGuardApp())
	checkPairsMatchReference(t, "SynthLarge", corpus.SynthLarge())
	for _, row := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(row)
		checkPairsMatchReference(t, row.Name, app)
	}
	for _, sc := range corpus.Scenarios() {
		seeds := int64(8)
		if sc.Name == "table2-x10" {
			seeds = tenfoldSeeds
		}
		for seed := int64(0); seed < seeds; seed++ {
			name := fmt.Sprintf("%s-%d", sc.Name, seed)
			app, _ := sc.Generate(name, seed, nil)
			checkPairsMatchReference(t, name, app)
		}
	}
}
