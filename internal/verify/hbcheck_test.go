package verify

import (
	"fmt"
	"strings"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/harness"
	"sierra/internal/interp"
	"sierra/internal/pointer"
	"sierra/internal/shbg"
)

// mapEvent resolves a trace event to its static action: it returns the
// number of static actions the event's label matches, and the action id
// when that number is 1. No match means the runtime fired a callback
// that discovery missed; several mean the label is ambiguous.
// occurrence is the 1-based count of this label so far in the trace —
// it distinguishes the duplicated lifecycle instances (first onResume is
// instance 1, later ones instance 2, mirroring the harness model).
func mapEvent(reg *actions.Registry, launcher string, ev *interp.TraceEvent, occurrence int) (id, matches int) {
	var cands []*actions.Action
	switch ev.Kind {
	case interp.EvLifecycle:
		inst := 1
		if occurrence > 1 && (ev.Label == frontend.OnStart || ev.Label == frontend.OnResume) {
			inst = 2
		}
		for _, a := range reg.Actions() {
			if a.Kind == actions.KindLifecycle && a.Class == launcher &&
				a.Callback == ev.Label && a.Instance == inst {
				cands = append(cands, a)
			}
		}
	default:
		// Labels look like "run[TimerRunnable]" / "onClick[Click0_0]".
		open := strings.IndexByte(ev.Label, '[')
		if open < 0 {
			return -1, 0
		}
		cb := ev.Label[:open]
		cls := strings.TrimSuffix(ev.Label[open+1:], "]")
		for _, a := range reg.Actions() {
			if a.Callback == cb && a.Class == cls {
				cands = append(cands, a)
			}
		}
	}
	if len(cands) != 1 {
		return -1, len(cands)
	}
	return cands[0].ID, 1
}

// TestStaticHBRespectsDynamicOrder is the end-to-end soundness
// cross-check: if the SHBG claims a ≺ b, no execution may run b's sole
// occurrence before a's sole occurrence. Restricting to labels that
// occur exactly once per trace sidesteps the instance conflation that
// static action nodes inherently have. Every executed event must also
// map to a static action (the actions obligation): an unknown event is
// a callback the runtime fires but discovery missed, and fails the
// test; an ambiguous one is skipped. The check runs on the handmade
// apps and two paper apps (40 schedules each) and on every scenario
// family at seeds 0–2 (10 schedules each). Of these, only
// corpus.PostOrderApp gives SHBG rules 4 and 5 edges to check.
func TestStaticHBRespectsDynamicOrder(t *testing.T) {
	type app struct {
		name      string
		factory   func() *apk.App
		schedules int64
	}
	apps := []app{
		{"newsapp", corpus.NewsApp, 40},
		{"sudoku", corpus.SudokuTimerApp, 40},
		{"dbapp", corpus.DatabaseApp, 40},
		{"nullguard", corpus.NullGuardApp, 40},
		{"postorder", corpus.PostOrderApp, 40},
		{"gen-VuDroid", func() *apk.App {
			row, _ := corpus.RowByName("VuDroid")
			a, _ := corpus.NamedApp(row)
			return a
		}, 40},
		{"gen-SuperGenPass", func() *apk.App {
			row, _ := corpus.RowByName("SuperGenPass")
			a, _ := corpus.NamedApp(row)
			return a
		}, 40},
	}
	for _, sc := range corpus.Scenarios() {
		for seed := int64(0); seed < 3; seed++ {
			name := fmt.Sprintf("%s-%d", sc.Name, seed)
			apps = append(apps, app{name, func() *apk.App {
				a, _ := sc.Generate(name, seed, nil)
				return a
			}, 10})
		}
	}
	for _, tc := range apps {
		t.Run(tc.name, func(t *testing.T) {
			app := tc.factory()
			hs := harness.Generate(app)
			reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
			// The soundness property is checked against the
			// instance-sound core: the §6.4 GUI-before-stop filter
			// deliberately conflates instances (see Options doc) and is
			// exempt by construction.
			g := shbg.Build(reg, res, shbg.Options{DisableGUITeardownOrder: true})
			launcher := app.Launcher().Class

			// The machine keeps heap and statics to itself and only
			// reads the app, so one unanalyzed copy serves every
			// schedule.
			runApp := tc.factory()
			violations, unknown := 0, 0
			for seed := int64(0); seed < tc.schedules; seed++ {
				m := interp.NewMachine(runApp, seed)
				m.RegisterManifestReceivers()
				tr := m.Run(60)

				// Map every event; order-check those whose labels occur
				// exactly once.
				labelCount := map[string]int{}
				for _, ev := range tr.Events {
					labelCount[ev.Label]++
				}
				type mapped struct {
					order  int
					action int
				}
				var seq []mapped
				occ := map[string]int{}
				for i, ev := range tr.Events {
					occ[ev.Label]++
					aid, matches := mapEvent(reg, launcher, ev, occ[ev.Label])
					if matches == 0 {
						unknown++
						if unknown <= 5 {
							t.Errorf("seed %d: event %q (kind %d) maps to no static action", seed, ev.Label, ev.Kind)
						}
						continue
					}
					if matches == 1 && labelCount[ev.Label] == 1 {
						seq = append(seq, mapped{order: i, action: aid})
					}
				}
				for i := 0; i < len(seq); i++ {
					for j := i + 1; j < len(seq); j++ {
						earlier, later := seq[i], seq[j]
						if earlier.action == later.action {
							continue
						}
						// The SHBG must not order the later event's
						// action before the earlier one.
						if g.HB(later.action, earlier.action) {
							violations++
							if violations <= 5 {
								t.Errorf("seed %d: observed %s before %s but SHBG claims %s ≺ %s",
									seed,
									reg.Get(earlier.action).Name(), reg.Get(later.action).Name(),
									reg.Get(later.action).Name(), reg.Get(earlier.action).Name())
							}
						}
					}
				}
			}
			if violations > 0 || unknown > 0 {
				t.Fatalf("%d HB soundness violations, %d unknown events", violations, unknown)
			}
		})
	}
}

// TestDynamicPostedByCoveredByStaticHB: every dynamically observed
// poster/enabler relationship must be covered statically — either a
// spawn record or an HB edge from the enabling action (GUI events are
// enabled by the callback that registered the listener; static HB covers
// that through the dominance rules rather than spawn records).
func TestDynamicPostedByCoveredByStaticHB(t *testing.T) {
	app := corpus.NewsApp()
	hs := harness.Generate(app)
	reg, res := actions.Analyze(app, hs, pointer.ActionSensitivePolicy{K: 2})
	g := shbg.Build(reg, res, shbg.Options{})
	launcher := app.Launcher().Class

	for seed := int64(0); seed < 30; seed++ {
		m := interp.NewMachine(corpus.NewsApp(), seed)
		tr := m.Run(60)
		occ := map[string]int{}
		byID := map[int]int{} // event id -> action id
		for _, ev := range tr.Events {
			occ[ev.Label]++
			byID[ev.ID], _ = mapEvent(reg, launcher, ev, occ[ev.Label])
		}
		for _, ev := range tr.Events {
			if ev.Kind == interp.EvLifecycle || ev.PostedBy < 0 {
				continue
			}
			child, parent := byID[ev.ID], byID[ev.PostedBy]
			if child < 0 || parent < 0 || child == parent {
				continue
			}
			covered := g.HB(parent, child)
			for _, sp := range reg.Get(child).Spawns {
				if sp.From == parent {
					covered = true
				}
			}
			if !covered {
				t.Errorf("seed %d: runtime posted/enabled %s from %s but static HB has no cover",
					seed, reg.Get(child).Name(), reg.Get(parent).Name())
			}
		}
	}
}
