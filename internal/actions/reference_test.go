package actions

import (
	"fmt"
	"sort"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

// refActionInstances is attribution as it was before instance ids:
// each action's roots — its entry keys and, for lifecycle and GUI
// actions, the callees of its harness site in every instance of the
// harness main — reach over a walk of every block of every reached
// instance, and each action's keys sort by their String form.
func refActionInstances(r *Registry, res *pointer.Result) map[int][]pointer.MKey {
	callees := func(mk pointer.MKey, pos ir.Pos) []pointer.MKey {
		id, ok := res.Lookup(mk)
		if !ok {
			return nil
		}
		var out []pointer.MKey
		for _, c := range res.CalleesAt(id, pos) {
			out = append(out, res.Key(c))
		}
		return out
	}
	out := make(map[int][]pointer.MKey, len(r.actions))
	for _, a := range r.actions {
		roots := append([]pointer.MKey(nil), r.entryKeys[a.ID]...)
		if a.HarnessSite.Valid() {
			for _, main := range res.MethodInstances(r.Harnesses[a.Scope].Method) {
				roots = append(roots, callees(res.Key(main), a.HarnessSite)...)
			}
		}
		seen := map[pointer.MKey]bool{}
		var work []pointer.MKey
		for _, root := range roots {
			if _, ok := res.Lookup(root); ok && !seen[root] {
				seen[root] = true
				work = append(work, root)
			}
		}
		for len(work) > 0 {
			mk := work[len(work)-1]
			work = work[:len(work)-1]
			for bi, blk := range mk.M.Blocks {
				for si, s := range blk.Stmts {
					if _, ok := s.(*ir.Invoke); !ok {
						continue
					}
					for _, c := range callees(mk, ir.Pos{Method: mk.M, Block: bi, Index: si}) {
						if !seen[c] {
							seen[c] = true
							work = append(work, c)
						}
					}
				}
			}
		}
		keys := make([]pointer.MKey, 0, len(seen))
		for mk := range seen {
			keys = append(keys, mk)
		}
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		out[a.ID] = keys
	}
	return out
}

// referencePolicies are the five context policies the reference check
// covers.
var referencePolicies = []pointer.Policy{
	pointer.Insensitive{},
	pointer.KCFA{K: 2},
	pointer.KObj{K: 2},
	pointer.Hybrid{K: 2},
	pointer.ActionSensitivePolicy{K: 2},
}

// referenceSeeds is how many seeds of each scenario family the
// reference check takes; the race detector build lowers it
// (reference_race_test.go).
var referenceSeeds int64 = 8

// checkActionInstances holds ActionInstances to the reference on one
// app under every policy: per action, the same instance set, and ids
// ascending.
func checkActionInstances(t *testing.T, name string, app *apk.App) {
	t.Helper()
	hs := harness.Generate(app)
	for _, pol := range referencePolicies {
		reg, res := Analyze(app, hs, pol)
		got, want := reg.ActionInstances(res), refActionInstances(reg, res)
		if len(got) != reg.NumActions() {
			t.Fatalf("%s under %s: %d attributions for %d actions", name, pol.Name(), len(got), reg.NumActions())
		}
		for aid, ids := range got {
			if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
				t.Fatalf("%s under %s: A%d ids not ascending: %v", name, pol.Name(), aid, ids)
			}
			keys := make([]string, len(ids))
			for i, id := range ids {
				keys[i] = res.Key(id).String()
			}
			sort.Strings(keys)
			w := want[aid]
			if len(keys) != len(w) {
				t.Fatalf("%s under %s: A%d attributes %d instances, want %d", name, pol.Name(), aid, len(keys), len(w))
			}
			for i := range keys {
				if keys[i] != w[i].String() {
					t.Fatalf("%s under %s: A%d instance %d = %s, want %s", name, pol.Name(), aid, i, keys[i], w[i])
				}
			}
		}
	}
}

// TestActionInstancesMatchReference holds id-based attribution to the
// block-walking reference on the 20 paper apps and every scenario
// family at seeds 0–7, under all five policies.
func TestActionInstancesMatchReference(t *testing.T) {
	for _, row := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(row)
		checkActionInstances(t, row.Name, app)
	}
	for _, sc := range corpus.Scenarios() {
		for seed := int64(0); seed < referenceSeeds; seed++ {
			name := fmt.Sprintf("%s-%d", sc.Name, seed)
			app, _ := sc.Generate(name, seed, nil)
			checkActionInstances(t, name, app)
		}
	}
}
