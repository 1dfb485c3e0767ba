package actions

import (
	"fmt"
	"sync"

	"sierra/internal/apk"
	"sierra/internal/frontend"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/pointer"
)

// Registry discovers and owns all actions of one app. It plugs into the
// pointer analysis as its OnEvent hook: spawn APIs observed during the
// analysis create actions and new analysis entries on the fly, so action
// discovery and points-to resolution reach a joint fixpoint.
type Registry struct {
	App       *apk.App
	Harnesses []*harness.Harness
	Policy    pointer.Policy

	actions    []*Action
	byKey      map[string]*Action
	siteAction map[ir.Pos]int
	// taskEdges are AsyncTask-internal orderings (pre ≺ bg ≺ post).
	taskEdges [][2]int
	// entryKeys records the analysis entry instances per action.
	entryKeys map[int][]pointer.MKey
	// synthSites maps class → synthetic allocation-site id for
	// framework-instantiated components.
	synthSites map[string]int
	// harnessRoot maps activity class → harness-root action id.
	harnessRoot map[string]int
	// looperIDs interns background looper objects (§4.4 handler→looper
	// binding); the main looper singleton maps to LooperMain.
	looperIDs  map[pointer.Obj]Looper
	nextLooper Looper
	nextSynth  int
	// instMu guards instMemo, the per-Result ActionInstances cache.
	// The attribution is a pure function of (registry, result) and the
	// pipeline asks for it at least twice per app (access collection and
	// refuter construction), so recomputing the reachability closures
	// each time was a measurable share of refuter setup.
	instMu   sync.Mutex
	instMemo map[*pointer.Result][][]pointer.Inst
}

// NewRegistry creates the registry and the upfront actions: one harness
// root per activity, one lifecycle action per harness lifecycle site,
// one GUI action per harness slot, and one system action per
// manifest-declared receiver.
func NewRegistry(app *apk.App, hs []*harness.Harness, pol pointer.Policy) *Registry {
	r := &Registry{
		App:         app,
		Harnesses:   hs,
		Policy:      pol,
		byKey:       make(map[string]*Action),
		siteAction:  make(map[ir.Pos]int),
		entryKeys:   make(map[int][]pointer.MKey),
		harnessRoot: make(map[string]int),
		looperIDs:   make(map[pointer.Obj]Looper),
		nextLooper:  LooperMain + 1,
		nextSynth:   -100,
	}
	p := app.Program
	for hi, h := range hs {
		root := r.add(&Action{
			Kind:     KindHarnessRoot,
			Roots:    []*ir.Method{h.Method},
			Class:    h.Activity,
			Callback: "main",
			Scope:    hi,
			Looper:   LooperMain,
		}, fmt.Sprintf("harness:%d", hi))
		r.harnessRoot[h.Activity] = root.ID
		for _, site := range h.Lifecycle {
			a := r.add(&Action{
				Kind:        KindLifecycle,
				Roots:       methods(p.ResolveMethod(h.Activity, site.Callback)),
				Class:       h.Activity,
				Callback:    site.Callback,
				Instance:    site.Instance,
				HarnessSite: site.Pos,
				Scope:       hi,
				Looper:      LooperMain,
				Spawns:      []Spawn{{From: root.ID, Site: site.Pos}},
			}, fmt.Sprintf("lc:%d:%s:%d", hi, site.Callback, site.Instance))
			r.siteAction[site.Pos] = a.ID
		}
		for si, slot := range h.GUI {
			var roots []*ir.Method
			for _, cls := range slot.Classes {
				if m := p.ResolveMethod(cls, slot.Callback); m != nil {
					roots = append(roots, m)
				}
			}
			cls := h.Activity
			if len(slot.Classes) == 1 {
				cls = slot.Classes[0]
			}
			a := r.add(&Action{
				Kind:        KindGUI,
				Roots:       roots,
				Class:       cls,
				Callback:    slot.Callback,
				HarnessSite: slot.Pos,
				Scope:       hi,
				Looper:      LooperMain,
				Spawns:      []Spawn{{From: root.ID, Site: slot.Pos}},
			}, fmt.Sprintf("gui:%d:%d", hi, si))
			r.siteAction[slot.Pos] = a.ID
		}
	}
	// Manifest-declared receivers are enabled at install time.
	for _, comp := range app.Manifest.Receivers {
		if m := p.ResolveMethod(comp.Class, frontend.OnReceive); m != nil && !m.Class.Framework {
			r.add(&Action{
				Kind:     KindSystem,
				Roots:    []*ir.Method{m},
				Class:    comp.Class,
				Callback: frontend.OnReceive,
				Scope:    -1,
				Looper:   LooperMain,
				Spawns:   []Spawn{{From: NoSpawner}},
			}, "recv-class:"+comp.Class)
		}
	}
	return r
}

func methods(ms ...*ir.Method) []*ir.Method {
	var out []*ir.Method
	for _, m := range ms {
		if m != nil {
			out = append(out, m)
		}
	}
	return out
}

// add registers an action under a dedup key, returning the existing one
// if present.
func (r *Registry) add(a *Action, key string) *Action {
	if have, ok := r.byKey[key]; ok {
		return have
	}
	a.ID = len(r.actions)
	r.actions = append(r.actions, a)
	r.byKey[key] = a
	return a
}

// Actions returns all actions in id order.
func (r *Registry) Actions() []*Action { return r.actions }

// Get returns the action with the given id.
func (r *Registry) Get(id int) *Action { return r.actions[id] }

// NumActions reports the action count.
func (r *Registry) NumActions() int { return len(r.actions) }

// ActionAt implements the pointer.Config hook: harness lifecycle and GUI
// call sites enter their action.
func (r *Registry) ActionAt(pos ir.Pos) (int, bool) {
	id, ok := r.siteAction[pos]
	return id, ok
}

// TaskEdges returns AsyncTask-internal HB edges (pre ≺ bg ≺ post).
func (r *Registry) TaskEdges() [][2]int { return r.taskEdges }

// Entries returns the initial pointer-analysis entries: the harness
// mains (as harness-root actions) plus manifest-declared system actions.
func (r *Registry) Entries() []pointer.Entry {
	var out []pointer.Entry
	for _, a := range r.actions {
		switch a.Kind {
		case KindHarnessRoot:
			ctx := pointer.EntryContext(r.Policy, a.ID, pointer.Obj{}, false)
			e := pointer.Entry{Method: a.Roots[0], Ctx: ctx}
			r.recordEntry(a.ID, e)
			out = append(out, e)
		case KindSystem:
			// Manifest receivers: framework-created instance.
			obj := r.synthObj(a.Class)
			ctx := pointer.EntryContext(r.Policy, a.ID, obj, true)
			for _, m := range a.Roots {
				e := pointer.Entry{Method: m, Ctx: ctx, This: []pointer.Obj{obj}}
				r.recordEntry(a.ID, e)
				out = append(out, e)
			}
		}
	}
	return out
}

func (r *Registry) recordEntry(id int, e pointer.Entry) {
	mk := pointer.MKey{M: e.Method, Ctx: e.Ctx}
	for _, have := range r.entryKeys[id] {
		if have == mk {
			return
		}
	}
	r.entryKeys[id] = append(r.entryKeys[id], mk)
}

// synthObj returns a per-class synthetic abstract object for
// framework-instantiated components (manifest receivers, services).
func (r *Registry) synthObj(cls string) pointer.Obj {
	return r.synthObjKeyed(cls, cls)
}

// synthObjKeyed returns a synthetic object with an explicit identity key
// (e.g. one Message per sendEmptyMessage site).
func (r *Registry) synthObjKeyed(key, cls string) pointer.Obj {
	if r.synthSites == nil {
		r.synthSites = make(map[string]int)
	}
	site, ok := r.synthSites[key]
	if !ok {
		site = r.nextSynth
		r.nextSynth--
		r.synthSites[key] = site
	}
	return pointer.Obj{Site: site, Class: cls, Ctx: "synthetic"}
}

// OnEvent implements the pointer.Config hook: recognized spawn APIs turn
// into actions and analysis entries. It is idempotent — the engine
// re-fires events as points-to sets grow.
func (r *Registry) OnEvent(ev pointer.Event) []pointer.Entry {
	p := r.App.Program
	from := ev.Caller.Ctx.Action
	scope := r.scopeOf(from)
	var out []pointer.Entry

	switch ev.API.Kind {
	case frontend.APIExecuteAsyncTask:
		for _, o := range ev.Recv {
			key := fmt.Sprintf("task:%v:%s", ev.Pos, o.Class)
			pre := r.appMethod(p, o.Class, frontend.OnPreExecute)
			bg := r.appMethod(p, o.Class, frontend.DoInBackground)
			post := r.appMethod(p, o.Class, frontend.OnPostExecute)
			var preA, bgA, postA *Action
			if pre != nil {
				preA = r.add(&Action{Kind: KindAsyncPre, Roots: []*ir.Method{pre},
					Class: o.Class, Callback: frontend.OnPreExecute, Scope: scope,
					Looper: LooperMain}, key+":pre")
				r.addSpawn(preA, Spawn{From: from, Site: ev.Pos})
				out = append(out, r.spawnEntry(preA, pre, o)...)
			}
			if bg != nil {
				bgA = r.add(&Action{Kind: KindAsyncBackground, Roots: []*ir.Method{bg},
					Class: o.Class, Callback: frontend.DoInBackground, Scope: scope,
					Looper: LooperNone}, key+":bg")
				r.addSpawn(bgA, Spawn{From: from, Site: ev.Pos})
				out = append(out, r.spawnEntry(bgA, bg, o)...)
			}
			if post != nil && bgA != nil {
				postA = r.add(&Action{Kind: KindAsyncPost, Roots: []*ir.Method{post},
					Class: o.Class, Callback: frontend.OnPostExecute, Scope: scope,
					Looper: LooperMain}, key+":post")
				r.addSpawn(postA, Spawn{From: bgA.ID, Site: ev.Pos, Posted: true})
				out = append(out, r.spawnEntry(postA, post, o)...)
			}
			if preA != nil && bgA != nil {
				r.addTaskEdge(preA.ID, bgA.ID)
			}
			if bgA != nil && postA != nil {
				r.addTaskEdge(bgA.ID, postA.ID)
			}
		}

	case frontend.APIThreadStart:
		for _, o := range ev.Recv {
			run := p.ResolveMethod(o.Class, frontend.Run)
			if run == nil {
				continue
			}
			a := r.add(&Action{Kind: KindThread, Roots: []*ir.Method{run},
				Class: o.Class, Callback: frontend.Run, Scope: scope,
				Looper: LooperNone}, fmt.Sprintf("thread:%v:%s", ev.Pos, o.Class))
			r.addSpawn(a, Spawn{From: from, Site: ev.Pos})
			out = append(out, r.spawnEntry(a, run, o)...)
		}

	case frontend.APIExecutorExecute, frontend.APITimerSchedule:
		for _, o := range ev.Args[ev.API.Arg] {
			run := p.ResolveMethod(o.Class, frontend.Run)
			if run == nil {
				continue
			}
			a := r.add(&Action{Kind: KindThread, Roots: []*ir.Method{run},
				Class: o.Class, Callback: frontend.Run, Scope: scope,
				Looper: LooperNone}, fmt.Sprintf("exec:%v:%s", ev.Pos, o.Class))
			r.addSpawn(a, Spawn{From: from, Site: ev.Pos, Delayed: ev.API.Delayed})
			out = append(out, r.spawnEntry(a, run, o)...)
		}

	case frontend.APIPostRunnable:
		looper := LooperMain
		if ev.API.Target == frontend.TargetHandlerLooper {
			looper = r.looperOf(ev, ev.Recv)
		}
		for _, o := range ev.Args[ev.API.Arg] {
			run := p.ResolveMethod(o.Class, frontend.Run)
			if run == nil {
				continue
			}
			a := r.add(&Action{Kind: KindRunnable, Roots: []*ir.Method{run},
				Class: o.Class, Callback: frontend.Run, Scope: scope,
				Looper: looper}, fmt.Sprintf("post:%v:%s", ev.Pos, o.Class))
			// Points-to grows monotonically across event refires; adopt
			// the more specific looper once the binding resolves.
			if looper != LooperMain {
				a.Looper = looper
			}
			r.addSpawn(a, Spawn{From: from, Site: ev.Pos, Delayed: ev.API.Delayed, Posted: true})
			out = append(out, r.spawnEntry(a, run, o)...)
		}

	case frontend.APISendMessage:
		whats := messageWhats(ev)
		looper := r.looperOf(ev, ev.Recv)
		for _, o := range ev.Recv {
			hm := r.appMethod(p, o.Class, frontend.HandleMessage)
			if hm == nil {
				continue
			}
			a := r.add(&Action{Kind: KindMessage, Roots: []*ir.Method{hm},
				Class: o.Class, Callback: frontend.HandleMessage, Scope: scope,
				Looper: looper}, fmt.Sprintf("msg:%v:%s", ev.Pos, o.Class))
			if looper != LooperMain {
				a.Looper = looper
			}
			r.addSpawn(a, Spawn{From: from, Site: ev.Pos, Delayed: ev.API.Delayed, Posted: true})
			a.MsgWhats = mergeWhats(a.MsgWhats, whats)
			entries := r.spawnEntry(a, hm, o)
			// Bind the message parameter: to the send argument, or — for
			// sendEmptyMessage — to a synthetic per-site Message object
			// so the refuter's constant propagation has a carrier for
			// the what constraint.
			if len(hm.Params) > 0 {
				if ev.Inv.Method == frontend.SendEmptyMessage {
					msg := r.synthObjKeyed(fmt.Sprintf("msg:%v", ev.Pos), frontend.MessageClass)
					for i := range entries {
						entries[i].ParamObjs = map[string][]pointer.Obj{hm.Params[0]: {msg}}
					}
				} else {
					src := pointer.VarKey{M: ev.Caller.M, Ctx: ev.Caller.Ctx, Var: ev.Inv.Args[0]}
					for i := range entries {
						entries[i].ParamFrom = map[string]pointer.VarKey{hm.Params[0]: src}
					}
				}
			}
			out = append(out, entries...)
		}

	case frontend.APIRegisterReceiver:
		for _, o := range ev.Args[ev.API.Arg] {
			m := r.appMethod(p, o.Class, frontend.OnReceive)
			if m == nil {
				continue
			}
			// Receivers are keyed by class: a manifest declaration and a
			// dynamic registration of the same receiver are one action.
			a := r.add(&Action{Kind: KindSystem, Roots: []*ir.Method{m},
				Class: o.Class, Callback: frontend.OnReceive, Scope: -1,
				Looper: LooperMain}, "recv-class:"+o.Class)
			r.addSpawn(a, Spawn{From: from, Site: ev.Pos})
			e := r.spawnEntry(a, m, o)
			// The intent parameter gets a synthetic Intent object.
			if len(m.Params) >= 2 {
				intent := r.synthObj(frontend.IntentClass)
				for i := range e {
					e[i].ParamObjs = map[string][]pointer.Obj{m.Params[1]: {intent}}
				}
			}
			out = append(out, e...)
		}

	case frontend.APIStartService:
		// The intent's target class is opaque statically; over-
		// approximate to every manifest service.
		for _, comp := range r.App.Manifest.Services {
			m := r.appMethod(p, comp.Class, frontend.OnStartCommand)
			if m == nil {
				continue
			}
			a := r.add(&Action{Kind: KindSystem, Roots: []*ir.Method{m},
				Class: comp.Class, Callback: frontend.OnStartCommand, Scope: -1,
				Looper: LooperMain}, fmt.Sprintf("svc:%v:%s", ev.Pos, comp.Class))
			r.addSpawn(a, Spawn{From: from, Site: ev.Pos})
			obj := r.synthObj(comp.Class)
			ctx := pointer.EntryContext(r.Policy, a.ID, obj, true)
			e := pointer.Entry{Method: m, Ctx: ctx, This: []pointer.Obj{obj}}
			r.recordEntry(a.ID, e)
			out = append(out, e)
		}

	case frontend.APIStartActivity:
		// Activity launch order: the started activity's whole harness is
		// ordered after the starting action. The intent's target is read
		// from its targetClass field (the frontend's intent model); an
		// unresolvable target adds no order — the sound default.
		for _, intent := range ev.Args[ev.API.Arg] {
			if ev.FieldObjs == nil {
				break
			}
			for _, tgt := range ev.FieldObjs(intent, "targetClass") {
				rootID, ok := r.harnessRoot[tgt.Class]
				if !ok {
					continue
				}
				root := r.actions[rootID]
				// Never order an activity after itself (navigation
				// cycles would corrupt the HB relation).
				if root.Scope == scope {
					continue
				}
				r.addSpawn(root, Spawn{From: from, Site: ev.Pos})
			}
		}

	case frontend.APIBindService:
		for _, o := range ev.Args[ev.API.Arg] {
			m := r.appMethod(p, o.Class, frontend.OnServiceConnected)
			if m == nil {
				continue
			}
			a := r.add(&Action{Kind: KindSystem, Roots: []*ir.Method{m},
				Class: o.Class, Callback: frontend.OnServiceConnected, Scope: -1,
				Looper: LooperMain}, fmt.Sprintf("conn:%v:%s", ev.Pos, o.Class))
			r.addSpawn(a, Spawn{From: from, Site: ev.Pos})
			out = append(out, r.spawnEntry(a, m, o)...)
		}
	}
	return out
}

// spawnEntry builds the analysis entry for a spawned action root.
func (r *Registry) spawnEntry(a *Action, m *ir.Method, recv pointer.Obj) []pointer.Entry {
	ctx := pointer.EntryContext(r.Policy, a.ID, recv, true)
	e := pointer.Entry{Method: m, Ctx: ctx, This: []pointer.Obj{recv}}
	r.recordEntry(a.ID, e)
	return []pointer.Entry{e}
}

// appMethod resolves cls#name, returning it only when the implementation
// is app code (framework default bodies are no-op callbacks, not
// actions).
func (r *Registry) appMethod(p *ir.Program, cls, name string) *ir.Method {
	m := p.ResolveMethod(cls, name)
	if m == nil || (m.Class != nil && m.Class.Framework) {
		return nil
	}
	return m
}

// addSpawn appends a spawn record, deduplicating.
func (r *Registry) addSpawn(a *Action, s Spawn) {
	for _, have := range a.Spawns {
		if have == s {
			return
		}
	}
	a.Spawns = append(a.Spawns, s)
}

func (r *Registry) addTaskEdge(from, to int) {
	for _, have := range r.taskEdges {
		if have[0] == from && have[1] == to {
			return
		}
	}
	r.taskEdges = append(r.taskEdges, [2]int{from, to})
}

// looperOf resolves the looper a handler posts to: the handler objects'
// looper field points-to sets, interned per background looper object.
// Unresolvable bindings default to the main looper (the common case for
// handlers constructed with getMainLooper).
func (r *Registry) looperOf(ev pointer.Event, handlers []pointer.Obj) Looper {
	if ev.FieldObjs == nil {
		return LooperMain
	}
	for _, h := range handlers {
		for _, lo := range ev.FieldObjs(h, "looper") {
			if lo.Site == pointer.SiteMainLooper {
				return LooperMain
			}
			if id, ok := r.looperIDs[lo]; ok {
				return id
			}
			id := r.nextLooper
			r.nextLooper++
			r.looperIDs[lo] = id
			return id
		}
	}
	return LooperMain
}

// scopeOf returns the harness scope of an action id (or -1).
func (r *Registry) scopeOf(id int) int {
	if id < 0 || id >= len(r.actions) {
		return -1
	}
	return r.actions[id].Scope
}

// ActionInstances attributes call-graph instances to actions by
// reachability from each action's entry instances: for each action id,
// the ids of the instances it reaches, ascending. Under action-
// sensitive policies the sets are disjoint (contexts carry the action
// id); under insensitive policies method instances shared between
// actions attribute to all of them — exactly the imprecision action
// sensitivity removes.
//
// The result is memoized per Result and shared: callers must treat the
// returned slices as read-only.
func (r *Registry) ActionInstances(res *pointer.Result) [][]pointer.Inst {
	r.instMu.Lock()
	defer r.instMu.Unlock()
	if out, ok := r.instMemo[res]; ok {
		return out
	}
	out := r.attribute(res)
	if r.instMemo == nil {
		r.instMemo = map[*pointer.Result][][]pointer.Inst{}
	}
	r.instMemo[res] = out
	return out
}

// attribute computes ActionInstances without consulting the memo.
func (r *Registry) attribute(res *pointer.Result) [][]pointer.Inst {
	out := make([][]pointer.Inst, len(r.actions))
	var roots []pointer.Inst
	for _, a := range r.actions {
		roots = roots[:0]
		for _, mk := range r.entryKeys[a.ID] {
			if id, ok := res.Lookup(mk); ok {
				roots = append(roots, id)
			}
		}
		// Lifecycle/GUI actions enter via their harness call site.
		if a.HarnessSite.Valid() {
			for _, main := range res.MethodInstances(r.Harnesses[a.Scope].Method) {
				roots = append(roots, res.CalleesAt(main, a.HarnessSite)...)
			}
		}
		out[a.ID] = res.ReachableFrom(roots...)
	}
	return out
}

// messageWhats extracts constant message codes at a send site: the
// direct constant of sendEmptyMessage, or constants stored into the
// message argument's "what" field within the sending method.
func messageWhats(ev pointer.Event) []int64 {
	m := ev.Caller.M
	if ev.Inv.Method == frontend.SendEmptyMessage {
		return ir.ConstIntDefs(m, ev.Inv.Args[0])
	}
	arg := ev.Inv.Args[0]
	var out []int64
	for _, blk := range m.Blocks {
		for _, s := range blk.Stmts {
			if st, ok := s.(*ir.Store); ok && st.Field == "what" && st.Obj == arg {
				out = append(out, ir.ConstIntDefs(m, st.Src)...)
			}
		}
	}
	return out
}

func mergeWhats(have, more []int64) []int64 {
	seen := map[int64]bool{}
	for _, w := range have {
		seen[w] = true
	}
	for _, w := range more {
		if !seen[w] {
			seen[w] = true
			have = append(have, w)
		}
	}
	return have
}
