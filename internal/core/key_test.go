package core_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/obs"
	"sierra/internal/pointer"
	"sierra/internal/serve"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

// keyedFields and execFields classify every field of core.Options,
// symexec.Config and shbg.Options (nested fields by dotted path): each
// entry sets its field to a non-default value. A keyed field must move
// Options.Key; an execution field changes no output and must not.
var keyedFields = map[string]func(*core.Options){
	"Policy":                       func(o *core.Options) { o.Policy = pointer.Hybrid{K: 2} },
	"CompareContexts":              func(o *core.Options) { o.CompareContexts = true },
	"SkipRefutation":               func(o *core.Options) { o.SkipRefutation = true },
	"Refuter.MaxPaths":             func(o *core.Options) { o.Refuter.MaxPaths = 37 },
	"Refuter.MaxDepth":             func(o *core.Options) { o.Refuter.MaxDepth = 2 },
	"Refuter.DisableCache":         func(o *core.Options) { o.Refuter.DisableCache = true },
	"SHBG.Disable":                 func(o *core.Options) { o.SHBG.Disable = map[shbg.Rule]bool{shbg.RuleGUI: true} },
	"SHBG.DisableGUITeardownOrder": func(o *core.Options) { o.SHBG.DisableGUITeardownOrder = true },
}

var execFields = map[string]func(*core.Options){
	"Refuter.Jobs": func(o *core.Options) { o.Refuter.Jobs = 3 },
	"Refuter.Obs":  func(o *core.Options) { o.Refuter.Obs = obs.New("x") },
	"Refuter.Ctx":  func(o *core.Options) { o.Refuter.Ctx = context.Background() },
	"SHBG.Obs":     func(o *core.Options) { o.SHBG.Obs = obs.New("x") },
	"SHBG.Ctx":     func(o *core.Options) { o.SHBG.Ctx = context.Background() },
	"SHBG.Jobs":    func(o *core.Options) { o.SHBG.Jobs = 3 },
	"PTASolver":    func(o *core.Options) { o.PTASolver = pointer.SolverDelta },
	"PTAJobs":      func(o *core.Options) { o.PTAJobs = 3 },
	"KeepPTAWarm":  func(o *core.Options) { o.KeepPTAWarm = true },
	"Obs":          func(o *core.Options) { o.Obs = obs.New("x") },
}

// optionFields lists the dotted paths of every leaf field of
// core.Options, descending into its symexec.Config and shbg.Options.
func optionFields(t reflect.Type, prefix string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		switch f.Type {
		case reflect.TypeOf(symexec.Config{}), reflect.TypeOf(shbg.Options{}):
			out = append(out, optionFields(f.Type, prefix+f.Name+".")...)
		default:
			out = append(out, prefix+f.Name)
		}
	}
	return out
}

// TestKeyClassifiesEveryField: every option field is either rendered by
// Key or on the execution-only list, so a new field fails here until it
// is classified; and each classification is checked against Key.
func TestKeyClassifiesEveryField(t *testing.T) {
	base := core.Options{}.Key()
	seen := map[string]bool{}
	for _, name := range optionFields(reflect.TypeOf(core.Options{}), "") {
		seen[name] = true
		set, keyed := keyedFields[name]
		if !keyed {
			var ok bool
			if set, ok = execFields[name]; !ok {
				t.Errorf("field %s is neither keyed nor execution-only: classify it", name)
				continue
			}
		}
		var o core.Options
		set(&o)
		if moved := o.Key() != base; moved != keyed {
			t.Errorf("field %s: keyed=%t, but setting it moved the key: %t", name, keyed, moved)
		}
	}
	for _, list := range []map[string]func(*core.Options){keyedFields, execFields} {
		for name := range list {
			if !seen[name] {
				t.Errorf("classified field %s does not exist", name)
			}
		}
	}
}

// keySkipFamily names a scenario family TestKeyEqualMeansSameReport
// leaves out (set under the race detector; see key_race_test.go).
var keySkipFamily string

// TestKeyEqualMeansSameReport: options that differ only in execution
// fields or in explicit-versus-default values share a key and render
// byte-identical reports, on the handmade apps and seed 0 of every
// scenario family.
func TestKeyEqualMeansSameReport(t *testing.T) {
	implicit := core.Options{Refuter: symexec.Config{Jobs: 1}}
	explicit := core.Options{
		Policy:    pointer.ActionSensitivePolicy{K: 2},
		PTASolver: pointer.SolverDelta,
		Refuter:   symexec.Config{MaxPaths: 5000, MaxDepth: 6, Jobs: 3},
	}
	if implicit.Key() != explicit.Key() {
		t.Fatalf("keys differ:\n%s\n%s", implicit.Key(), explicit.Key())
	}
	apps := map[string]func() *apk.App{
		"News":        corpus.NewsApp,
		"Database":    corpus.DatabaseApp,
		"SudokuTimer": corpus.SudokuTimerApp,
		"NullGuard":   corpus.NullGuardApp,
	}
	for _, sc := range corpus.Scenarios() {
		if sc.Name == keySkipFamily {
			continue
		}
		sc := sc
		apps[sc.Name+"-0"] = func() *apk.App {
			app, _ := sc.Generate(sc.Name+"-0", 0, nil)
			return app
		}
	}
	for name, mk := range apps {
		a := serve.RenderReport("", core.Analyze(mk(), implicit))
		b := serve.RenderReport("", core.Analyze(mk(), explicit))
		if !bytes.Equal(a, b) {
			t.Errorf("%s: equal keys, different reports:\n%s\nvs\n%s", name, a, b)
		}
	}
}
