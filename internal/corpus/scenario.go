// Scenario families: named, knob-tunable generation shapes beyond the
// paper's 20-app dataset. The config-driven generator (config.go) mixes
// weighted families into a corpus stream; each family stresses one part
// of the pipeline the fixed Table-2 derivation does not.
package corpus

import (
	"fmt"
	"math/rand"

	"sierra/internal/apk"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// ScenarioKnob is one tunable size knob of a scenario family. A config
// may set it to any value in [Min, Max]; the bounds keep every app a
// config can ask for no larger than the largest one table2-x10 draws
// at its defaults (DESIGN.md, "Streaming corpus pipeline").
type ScenarioKnob struct {
	Name     string
	Default  int
	Min, Max int
	Desc     string
}

// Scenario is one named generation family in the registry.
type Scenario struct {
	Name string
	Desc string
	// Weight is the family's default mix weight in a config that lists
	// it without an explicit weight.
	Weight int
	Knobs  []ScenarioKnob
	// derive turns resolved knob values into generation knobs. rng is
	// seeded per app, so the same (family, seed, knobs) triple always
	// yields the same app.
	derive func(rng *rand.Rand, kv map[string]int) Knobs
}

// knob reads a resolved knob value, falling back to the family default.
func (s Scenario) knob(kv map[string]int, name string) int {
	if v, ok := kv[name]; ok {
		return v
	}
	for _, k := range s.Knobs {
		if k.Name == name {
			return k.Default
		}
	}
	return 0
}

// Generate builds one app of this family. Determinism contract: the
// same (appName, seed, knob values) always yields a byte-identical
// serialized app, independent of process, run, or generation worker.
func (s Scenario) Generate(appName string, seed int64, kv map[string]int) (*apk.App, *GroundTruth) {
	rng := rand.New(rand.NewSource(seed))
	k := s.derive(rng, kv)
	return Generate(appName, "stream", k)
}

// scenarios is the family registry. Order here is presentation order
// for -list-scenarios and the README catalog. Built in init so derive
// closures may call ScenarioByName without an initialization cycle.
var scenarios []Scenario

func init() { scenarios = buildScenarios() }

func buildScenarios() []Scenario {
	return []Scenario{
		{
			Name:   "paper-mix",
			Desc:   "a Table-2-shaped app: knobs derived from a sampled paper row",
			Weight: 4,
			Knobs: []ScenarioKnob{
				{"row", -1, -1, 19, "paper row index 0..19 (-1 = sample per app)"},
				{"scale", 1, 1, 10, "multiplier on the row's size and pattern counts"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("paper-mix")
				row := s.knob(kv, "row")
				if row < 0 || row >= len(PaperRows()) {
					row = rng.Intn(len(PaperRows()))
				}
				return scaleRowKnobs(PaperRows()[row], rng, s.knob(kv, "scale"))
			},
		},
		{
			Name:   "table2-x10",
			Desc:   "a paper row scaled ~10x in size and pattern counts",
			Weight: 1,
			Knobs: []ScenarioKnob{
				{"row", -1, -1, 19, "paper row index 0..19 (-1 = sample per app)"},
				{"scale", 10, 1, 10, "multiplier on the row's size and pattern counts"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("table2-x10")
				row := s.knob(kv, "row")
				if row < 0 || row >= len(PaperRows()) {
					row = rng.Intn(len(PaperRows()))
				}
				return scaleRowKnobs(PaperRows()[row], rng, s.knob(kv, "scale"))
			},
		},
		{
			Name:   "async-storm",
			Desc:   "many Fig-1 AsyncTask update races per activity",
			Weight: 2,
			Knobs: []ScenarioKnob{
				{"activities", 2, 1, 64, "activity (= harness) count"},
				{"patterns", 6, 0, 512, "async patterns across activities"},
				{"fields", 4, 1, 16, "raced fields per pattern"},
				{"filler", 6, 0, 1024, "race-free chained listeners"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("async-storm")
				return Knobs{
					Activities:  atLeast(s.knob(kv, "activities"), 1),
					AsyncTotal:  jitter(rng, s.knob(kv, "patterns")),
					AsyncFields: atLeast(s.knob(kv, "fields"), 1),
					FillerTotal: s.knob(kv, "filler"),
				}
			},
		},
		{
			Name:   "guarded-sync",
			Desc:   "Fig-8 ad-hoc-synchronized patterns the refuter must eliminate",
			Weight: 2,
			Knobs: []ScenarioKnob{
				{"activities", 2, 1, 64, "activity (= harness) count"},
				{"patterns", 6, 0, 512, "guarded patterns across activities"},
				{"fields", 3, 1, 12, "refutable accum fields per pattern"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("guarded-sync")
				return Knobs{
					Activities:  atLeast(s.knob(kv, "activities"), 1),
					AsyncTotal:  1,
					GuardTotal:  jitter(rng, s.knob(kv, "patterns")),
					GuardFields: atLeast(s.knob(kv, "fields"), 1),
				}
			},
		},
		{
			Name:   "service-lifecycle",
			Desc:   "started + bound services racing with the activity lifecycle; startService over-approximates to every manifest service",
			Weight: 2,
			Knobs: []ScenarioKnob{
				{"activities", 2, 1, 64, "activity (= harness) count"},
				{"services", 3, 0, 64, "started services (actions grow ~quadratically)"},
				{"binds", 3, 0, 64, "bound-service connections"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("service-lifecycle")
				return Knobs{
					Activities:   atLeast(s.knob(kv, "activities"), 1),
					AsyncTotal:   1,
					ServiceTotal: jitter(rng, s.knob(kv, "services")),
					BindTotal:    s.knob(kv, "binds"),
				}
			},
		},
		{
			Name:   "message-chain",
			Desc:   "deep Message.what chains: handler hops forwarding to the next handler, each writing shared state",
			Weight: 2,
			Knobs: []ScenarioKnob{
				{"activities", 1, 1, 64, "activity (= harness) count"},
				{"chains", 2, 0, 64, "chains per activity"},
				{"depth", 8, 2, 64, "handler hops per chain (min 2)"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("message-chain")
				return Knobs{
					Activities:    atLeast(s.knob(kv, "activities"), 1),
					AsyncTotal:    1,
					MsgChainTotal: s.knob(kv, "chains"),
					MsgChainDepth: atLeast(jitter(rng, s.knob(kv, "depth")), 2),
				}
			},
		},
		{
			Name:   "reflection-storm",
			Desc:   "reflective dispatch hubs: one slot field conflating many receivers, so one call fans out to every target",
			Weight: 2,
			Knobs: []ScenarioKnob{
				{"activities", 1, 1, 64, "activity (= harness) count"},
				{"storms", 2, 0, 64, "dispatch hubs per activity"},
				{"targets", 12, 2, 256, "receiver fan-out per hub"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("reflection-storm")
				return Knobs{
					Activities:     atLeast(s.knob(kv, "activities"), 1),
					AsyncTotal:     1,
					ReflectTotal:   s.knob(kv, "storms"),
					ReflectTargets: atLeast(jitter(rng, s.knob(kv, "targets")), 2),
				}
			},
		},
		{
			Name:   "alias-trap-deep",
			Desc:   "adversarial alias traps: helper chains deeper than any fixed k, many participating callbacks",
			Weight: 1,
			Knobs: []ScenarioKnob{
				{"activities", 2, 1, 64, "activity (= harness) count"},
				{"depth", 6, 3, 64, "helper chain depth (min 3; defeats k-object contexts of any k < depth)"},
				{"callbacks", 10, 0, 512, "trap-only callbacks across activities"},
			},
			derive: func(rng *rand.Rand, kv map[string]int) Knobs {
				s, _ := ScenarioByName("alias-trap-deep")
				return Knobs{
					Activities:    atLeast(s.knob(kv, "activities"), 1),
					AsyncTotal:    1,
					TrapDepth:     atLeast(s.knob(kv, "depth"), 3),
					TrapOnlyTotal: jitter(rng, s.knob(kv, "callbacks")),
				}
			},
		},
	}
}

// Scenarios lists the registry in presentation order.
func Scenarios() []Scenario {
	return append([]Scenario(nil), scenarios...)
}

// ScenarioByName finds a registered family.
func ScenarioByName(name string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// atLeast clamps from below.
func atLeast(v, lo int) int {
	if v < lo {
		return lo
	}
	return v
}

// jitter varies a knob ±25% deterministically from the app rng, so a
// weighted mix does not emit structurally identical apps.
func jitter(rng *rand.Rand, v int) int {
	if v <= 1 {
		return v
	}
	span := v / 2
	if span < 1 {
		return v
	}
	return v - span/2 + rng.Intn(span+1)
}

// scaleRowKnobs derives knobs from a paper row with every size-driving
// column multiplied by scale — table2-x10's "apps sized ~10x Table 2".
func scaleRowKnobs(r PaperRow, rng *rand.Rand, scale int) Knobs {
	if scale < 1 {
		scale = 1
	}
	r.SizeKB *= scale
	r.Actions *= scale
	r.RacyNoAS *= scale
	r.RacyAS *= scale
	r.AfterRefutation *= scale
	r.TrueRaces *= scale
	r.FP *= scale
	k := DeriveKnobs(r, rng)
	if scale > 1 {
		// DeriveKnobs clamps pattern counts per activity; lift the caps
		// proportionally so the scaled app really is ~scale× the work.
		k.AsyncTotal = clamp(k.AsyncTotal*scale/2, k.AsyncTotal, 8*k.Activities)
		k.FillerTotal = clamp(k.FillerTotal*scale/2, k.FillerTotal, 80*k.Activities)
		k.ServiceTotal = clamp(scale/2, 2, 6)
		k.MsgChainTotal = 1
		k.MsgChainDepth = clamp(scale, 4, 16)
	}
	return k
}

// serviceStormPattern plants one extra started service: onStartCommand
// writes static service state the activity's onStop reads. Every
// startService site over-approximates to every manifest service, so N
// storm services yield ~N² service actions — the lifecycle storm.
func (g *genState) serviceStormPattern(app *apk.App, act *ir.Class, onCreate, onStop *ir.MethodBuilder, ai, j int) {
	p := app.Program
	stateF := fmt.Sprintf("svcst%d_%d", ai, j)
	g.gt.TrueFields[stateF] = true

	svc := ir.NewClass(fmt.Sprintf("StormSvc%d_%d", ai, j), frontend.ServiceClass)
	sb := ir.NewMethodBuilder(frontend.OnStartCommand, "intent")
	sb.NewObj("x", frontend.BundleClass)
	sb.SStore(svc.Name, stateF, "x")
	sb.Ret("")
	svc.AddMethod(sb.Build())
	p.AddClass(svc)
	app.Manifest.Services = append(app.Manifest.Services, apk.Component{Class: svc.Name})

	iv := fmt.Sprintf("ssIntent%d_%d", ai, j)
	onCreate.NewObj(iv, frontend.IntentClass)
	onCreate.Call("", "this", act.Name, frontend.StartService, iv)
	onStop.SLoad(fmt.Sprintf("ssPeek%d_%d", ai, j), svc.Name, stateF)
}

// bindServicePattern plants one bound-service connection: bindService
// registers a ServiceConnection whose onServiceConnected writes activity
// state that onDestroy reads and onStop clears — the connection-vs-
// lifecycle race family.
func (g *genState) bindServicePattern(app *apk.App, act *ir.Class, onCreate, onStop, onDestroy *ir.MethodBuilder, ai, j int) {
	p := app.Program
	connF := fmt.Sprintf("binder%d_%d", ai, j)
	g.gt.TrueFields[connF] = true
	act.Fields = append(act.Fields, connF)

	svc := ir.NewClass(fmt.Sprintf("BoundSvc%d_%d", ai, j), frontend.ServiceClass)
	ob := ir.NewMethodBuilder(frontend.OnBind, "intent")
	ob.NewObj("b", frontend.BundleClass)
	ob.Ret("b")
	svc.AddMethod(ob.Build())
	p.AddClass(svc)
	app.Manifest.Services = append(app.Manifest.Services, apk.Component{Class: svc.Name})

	conn := ir.NewClass(fmt.Sprintf("Conn%d_%d", ai, j), frontend.Object, frontend.ServiceConnectionIface)
	conn.Fields = []string{"act"}
	init := ir.NewMethodBuilder("<init>", "a")
	init.Store("this", "act", "a")
	init.Ret("")
	conn.AddMethod(init.Build())
	osc := ir.NewMethodBuilder(frontend.OnServiceConnected, "name", "binder")
	osc.Load("a", "this", "act")
	osc.NewObj("x", frontend.BundleClass)
	osc.Store("a", connF, "x")
	osc.Ret("")
	conn.AddMethod(osc.Build())
	p.AddClass(conn)

	cv := fmt.Sprintf("conn%d_%d", ai, j)
	iv := fmt.Sprintf("bsIntent%d_%d", ai, j)
	onCreate.NewObj(cv, conn.Name)
	onCreate.CallSpecial("", cv, conn.Name, "<init>", "this")
	onCreate.NewObj(iv, frontend.IntentClass)
	onCreate.Call("", "this", act.Name, frontend.BindService, iv, cv)

	onStop.Null(fmt.Sprintf("bsNull%d_%d", ai, j))
	onStop.Store("this", connF, fmt.Sprintf("bsNull%d_%d", ai, j))
	onDestroy.Load(fmt.Sprintf("bsPeek%d_%d", ai, j), "this", connF)
}

// messageChainPattern plants one deep Message.what chain: depth handler
// classes, each hop's handleMessage writing its shared hop field and
// forwarding to the next handler with the next what code. The chain is
// a depth-long line of message actions in the SHBG (inter-action rule
// pressure); every hop field races with the activity's onStop read.
func (g *genState) messageChainPattern(p *ir.Program, act *ir.Class, onCreate, onStop *ir.MethodBuilder, ai, j, depth int) {
	if depth < 2 {
		depth = 2
	}
	hopCls := make([]*ir.Class, depth)
	for h := 0; h < depth; h++ {
		hopCls[h] = ir.NewClass(fmt.Sprintf("Chain%d_%d_%d", ai, j, h), frontend.HandlerClass)
		hopCls[h].Fields = []string{"act", "next"}
	}
	for h := 0; h < depth; h++ {
		hopF := fmt.Sprintf("hop%d_%d_%d", ai, j, h)
		g.gt.TrueFields[hopF] = true
		act.Fields = append(act.Fields, hopF)

		hb := ir.NewMethodBuilder(frontend.HandleMessage, "m")
		hb.Load("a", "this", "act")
		hb.NewObj("x", frontend.BundleClass)
		hb.Store("a", hopF, "x")
		if h+1 < depth {
			hb.Load("nxt", "this", "next")
			hb.Int("code", int64(h+1))
			hb.Call("", "nxt", hopCls[h+1].Name, frontend.SendEmptyMessage, "code")
		}
		hb.Ret("")
		hopCls[h].AddMethod(hb.Build())
		p.AddClass(hopCls[h])

		onStop.Load(fmt.Sprintf("hopPeek%d_%d_%d", ai, j, h), "this", hopF)
	}

	// Wire the chain back-to-front (each hop holds its successor), then
	// kick it off with what-code 0. Handlers are constructed without a
	// looper binding, so every hop runs on the main looper.
	for h := depth - 1; h >= 0; h-- {
		hv := fmt.Sprintf("ch%d_%d_%d", ai, j, h)
		onCreate.NewObj(hv, hopCls[h].Name)
		onCreate.Store(hv, "act", "this")
		if h+1 < depth {
			onCreate.Store(hv, "next", fmt.Sprintf("ch%d_%d_%d", ai, j, h+1))
		}
	}
	kick := fmt.Sprintf("kick%d_%d", ai, j)
	onCreate.Int(kick, 0)
	onCreate.Call("", fmt.Sprintf("ch%d_%d_0", ai, j), hopCls[0].Name, frontend.SendEmptyMessage, kick)
}

// reflectionStormPattern plants one reflective dispatch hub: targets
// distinct receiver classes all stored into a single static slot field,
// so the hub callback's virtual invoke fans out to every target — the
// shape DroidEL-resolved reflection leaves behind, and a deliberate
// stress on dispatch resolution (cha_targets, events_fired). Every
// target's invoke writes the shared storm field onStop reads.
func (g *genState) reflectionStormPattern(p *ir.Program, act *ir.Class, onCreate, onStop *ir.MethodBuilder, ai, j, targets int, newView func(string) (int, string)) {
	if targets < 2 {
		targets = 2
	}
	stormF := fmt.Sprintf("storm%d_%d", ai, j)
	g.gt.TrueFields[stormF] = true

	base := ir.NewClass(fmt.Sprintf("ReflBase%d_%d", ai, j), frontend.Object)
	base.Fields = []string{"act"}
	inv := ir.NewMethodBuilder("invoke")
	inv.Load("a", "this", "act")
	inv.NewObj("x", frontend.BundleClass)
	inv.Store("a", stormF, "x")
	inv.Ret("")
	base.AddMethod(inv.Build())
	p.AddClass(base)
	act.Fields = append(act.Fields, stormF)

	// The registry holding the conflated slot.
	reg := ir.NewClass(fmt.Sprintf("ReflReg%d_%d", ai, j), frontend.Object)
	reg.Fields = []string{"slot"}
	p.AddClass(reg)

	for t := 0; t < targets; t++ {
		tc := ir.NewClass(fmt.Sprintf("Refl%d_%d_%d", ai, j, t), base.Name)
		tb := ir.NewMethodBuilder("invoke")
		tb.Load("a", "this", "act")
		tb.NewObj("x", frontend.BundleClass)
		tb.Store("a", stormF, "x")
		tb.Ret("")
		tc.AddMethod(tb.Build())
		p.AddClass(tc)

		tv := fmt.Sprintf("rt%d_%d_%d", ai, j, t)
		onCreate.NewObj(tv, tc.Name)
		onCreate.Store(tv, "act", "this")
		onCreate.SStore(reg.Name, "slot", tv)
	}

	// The hub: a click callback that loads the conflated slot and
	// dispatches — one call edge per target under any policy.
	click := ir.NewClass(fmt.Sprintf("ReflClick%d_%d", ai, j), frontend.Object, frontend.OnClickListener)
	cb := ir.NewMethodBuilder(frontend.OnClick, "v")
	cb.SLoad("tgt", reg.Name, "slot")
	cb.Call("", "tgt", base.Name, "invoke")
	cb.Ret("")
	click.AddMethod(cb.Build())
	p.AddClass(click)

	id, _ := newView(frontend.ButtonClass)
	hv := fmt.Sprintf("rh%d_%d", ai, j)
	onCreate.NewObj(hv, click.Name)
	onCreate.Int(hv+"_id", int64(id))
	onCreate.Call(hv+"_v", "this", act.Name, frontend.FindViewByID, hv+"_id")
	onCreate.Call("", hv+"_v", frontend.ViewClass, frontend.SetOnClickListener, hv)

	onStop.Load(fmt.Sprintf("stormPeek%d_%d", ai, j), "this", stormF)
}
