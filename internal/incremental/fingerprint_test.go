package incremental_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/incremental"
	"sierra/internal/ir"
)

// tenfoldSeeds is how many seeds of the ten-fold scenario family
// TestComputeMatchesReference fingerprints (one under -race).
var tenfoldSeeds int64 = 8

// TestComputeMatchesReference holds Compute to the line-by-line
// fingerprint it replaced (fingerprint_reference_test.go): the same
// Shape and per-method Full and Skeleton digests, compared as hex, on
// every revision of the edit classes at both sizes, the 20 paper apps,
// every scenario family at seeds 0–7 (the ten-fold family at seed 0
// only under -race), and a hand-built app with a body that has no
// masked statement. Each edit class, forward and reversed, must also be
// planned as the reference digests plan it.
func TestComputeMatchesReference(t *testing.T) {
	check := func(t *testing.T, name string, app *apk.App) {
		t.Helper()
		if d := incremental.DiffReference(app); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	t.Run("edit-classes", func(t *testing.T) {
		for _, groups := range editGroups {
			for _, c := range editClasses {
				for _, dir := range []struct {
					name       string
					base, next corpus.StageDemoEdit
				}{{c.name, c.base, c.next}, {c.name + "-reversed", c.next, c.base}} {
					name := fmt.Sprintf("g%d/%s", groups, dir.name)
					_, base := readStageDemo(t, groups, dir.base)
					_, next := readStageDemo(t, groups, dir.next)
					check(t, name+" base", base)
					check(t, name+" next", next)
					got := incremental.PlanEdit(incremental.Compute(base), incremental.Compute(next))
					if want := incremental.PlanReference(base, next); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: PlanEdit = %+v, reference %+v", name, got, want)
					}
				}
			}
		}
	})
	t.Run("paper-apps", func(t *testing.T) {
		for _, row := range corpus.PaperRows() {
			app, _ := corpus.NamedApp(row)
			check(t, row.Name, reparse(t, app))
		}
	})
	t.Run("scenarios", func(t *testing.T) {
		for _, sc := range corpus.Scenarios() {
			seeds := int64(8)
			if sc.Name == "table2-x10" {
				seeds = tenfoldSeeds
			}
			for seed := int64(0); seed < seeds; seed++ {
				name := fmt.Sprintf("%s-%d", sc.Name, seed)
				app, _ := sc.Generate(name, seed, nil)
				check(t, name, reparse(t, app))
			}
		}
	})
	t.Run("hand-built", func(t *testing.T) {
		app := handBuiltApp()
		check(t, "hand-built", app)
		fp := incremental.Compute(app)
		if m := fp.Methods["Main#onCreate"]; m.Full != m.Skeleton {
			t.Error("Main#onCreate has no masked statement, so its Skeleton must be its Full")
		}
		if m := fp.Methods["Lib#sum"]; m.Full == m.Skeleton {
			t.Error("Lib#sum has a BinOp, so its Skeleton must differ from its Full")
		}
	})
}

// reparse round-trips app through its serialized form, so it is
// fingerprinted as serve fingerprints a submission: freshly parsed.
func reparse(t *testing.T, app *apk.App) *apk.App {
	t.Helper()
	raw, err := appfile.Bytes(app)
	if err != nil {
		t.Fatal(err)
	}
	out, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("%s: %v", app.Name, err)
	}
	return out
}

// handBuiltApp has the shape lines no serialized app can carry (a
// service with two intent filters, a view with two XML callbacks, a
// library class with two interfaces, a static method) and an onCreate
// with neither If nor BinOp, beside a method with a BinOp.
func handBuiltApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	act := ir.NewClass("Main", frontend.ActivityClass)
	act.Fields = []string{"label"}
	b := ir.NewMethodBuilder(frontend.OnCreate)
	b.NewObj("x", frontend.BundleClass)
	b.Store("this", "label", "x")
	b.Ret("")
	act.AddMethod(b.Build())
	p.AddClass(act)
	lib := ir.NewClass("Lib", frontend.Object, "lib.A", "lib.B")
	lib.Library = true
	sum := ir.NewStaticMethodBuilder("sum", "a", "b")
	sum.BinOp("s", ir.OpAdd, "a", "b")
	sum.Ret("s")
	lib.AddMethod(sum.Build())
	p.AddClass(lib)
	p.AddClass(ir.NewClass("Svc", frontend.ServiceClass))
	p.Finalize()
	return &apk.App{
		Name:     "HandBuilt",
		Program:  p,
		Installs: "1,000–5,000",
		Manifest: apk.Manifest{
			Package:    "hand.built",
			Activities: []apk.Component{{Class: "Main", Layout: "main"}},
			Services:   []apk.Component{{Class: "Svc", IntentFilters: []string{"a.START", "a.STOP"}}},
		},
		Layouts: map[string]*apk.Layout{"main": {Name: "main", Root: &apk.View{
			ID: 1, Type: frontend.ViewClass,
			XMLCallbacks: map[string]string{"onClick": "tap", "onLongClick": "hold"},
			Children:     []*apk.View{{ID: 2, Type: frontend.ButtonClass}},
		}}},
	}
}
