package interp

import (
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// maxCallDepth bounds interpreted call nesting.
const maxCallDepth = 64

// invoke runs method `name` on receiver o with args, dispatching through
// the class hierarchy. Missing bodies are no-ops.
func (m *Machine) invoke(o *Object, name string, args []Value) Value {
	if o == nil {
		return NullV()
	}
	target := m.prog.ResolveMethod(o.Class, name)
	if target == nil {
		return NullV()
	}
	return m.call(target, RefV(o), args, 0)
}

// call interprets one method body.
func (m *Machine) call(target *ir.Method, this Value, args []Value, depth int) Value {
	if target == nil || len(target.Blocks) == 0 || depth > maxCallDepth {
		return NullV()
	}
	locals := map[string]Value{}
	if !target.Static {
		locals["this"] = this
	}
	for i, p := range target.Params {
		if i < len(args) {
			locals[p] = args[i]
		}
	}
	bi := 0
	for {
		blk := target.Blocks[bi]
		branchTo := -1
		for si := 0; si < len(blk.Stmts); si++ {
			m.steps++
			if m.steps > m.maxSteps {
				return NullV()
			}
			s := blk.Stmts[si]
			pos := ir.Pos{Method: target, Block: bi, Index: si}
			switch st := s.(type) {
			case *ir.New:
				locals[st.Dst] = RefV(m.alloc(st.Class))
			case *ir.Const:
				switch st.Kind {
				case ir.ConstInt:
					locals[st.Dst] = IntV(st.Int)
				case ir.ConstBool:
					locals[st.Dst] = BoolV(st.Bool)
				case ir.ConstString:
					locals[st.Dst] = StrV(st.Str)
				default:
					locals[st.Dst] = NullV()
				}
			case *ir.Move:
				locals[st.Dst] = locals[st.Src]
			case *ir.Load:
				base := locals[st.Obj]
				var v Value
				if base.Kind == VRef && base.Ref != nil {
					v = base.Ref.Get(st.Field)
					m.record(TraceAccess{
						ObjID: base.Ref.ID, Class: base.Ref.Class, Field: st.Field,
						Kind: Read, Pos: pos,
						RefTyped: v.Kind == VRef || v.Kind == VNull,
					})
				}
				locals[st.Dst] = v
			case *ir.Store:
				base := locals[st.Obj]
				if base.Kind == VRef && base.Ref != nil {
					v := locals[st.Src]
					base.Ref.Set(st.Field, v)
					m.record(TraceAccess{
						ObjID: base.Ref.ID, Class: base.Ref.Class, Field: st.Field,
						Kind: Write, Pos: pos,
						RefTyped: v.Kind == VRef || v.Kind == VNull,
					})
				}
			case *ir.StaticLoad:
				v := m.statics[st.Class+"."+st.Field]
				m.record(TraceAccess{ObjID: -1, Class: st.Class, Field: st.Field,
					Kind: Read, Pos: pos, RefTyped: v.Kind == VRef || v.Kind == VNull})
				locals[st.Dst] = v
			case *ir.StaticStore:
				v := locals[st.Src]
				m.statics[st.Class+"."+st.Field] = v
				m.record(TraceAccess{ObjID: -1, Class: st.Class, Field: st.Field,
					Kind: Write, Pos: pos, RefTyped: v.Kind == VRef || v.Kind == VNull})
			case *ir.BinOp:
				locals[st.Dst] = evalBinOp(st.Op, locals[st.A], locals[st.B])
			case *ir.Invoke:
				locals[st.Dst] = m.execInvoke(st, locals, depth)
				if st.Dst == "" {
					delete(locals, "")
				}
			case *ir.Return:
				if st.Src == "" {
					return NullV()
				}
				return locals[st.Src]
			case *ir.If:
				if m.evalCond(st, locals) {
					branchTo = blk.Succs[0]
				} else {
					branchTo = blk.Succs[1]
				}
			}
			if branchTo >= 0 {
				break
			}
		}
		switch {
		case branchTo >= 0:
			bi = branchTo
		case len(blk.Succs) > 0:
			bi = blk.Succs[0]
		default:
			return NullV()
		}
	}
}

// evalCond evaluates an If condition; variables never assigned (the
// harness's star idiom) resolve randomly.
func (m *Machine) evalCond(st *ir.If, locals map[string]Value) bool {
	a, okA := locals[st.A]
	if !okA {
		return m.rng.Intn(2) == 0
	}
	var b Value
	if st.B.IsVar {
		var okB bool
		b, okB = locals[st.B.Var]
		if !okB {
			return m.rng.Intn(2) == 0
		}
	} else {
		switch st.B.Kind {
		case ir.ConstInt:
			b = IntV(st.B.Int)
		case ir.ConstBool:
			b = BoolV(st.B.Bool)
		default:
			b = NullV()
		}
	}
	switch st.Op {
	case ir.CmpEQ:
		return a.Equal(b)
	case ir.CmpNE:
		return !a.Equal(b)
	case ir.CmpLT:
		return a.Int < b.Int
	case ir.CmpLE:
		return a.Int <= b.Int
	case ir.CmpGT:
		return a.Int > b.Int
	default:
		return a.Int >= b.Int
	}
}

func evalBinOp(op ir.BinOpKind, a, b Value) Value {
	switch op {
	case ir.OpAdd:
		return IntV(a.Int + b.Int)
	case ir.OpSub:
		return IntV(a.Int - b.Int)
	case ir.OpMul:
		return IntV(a.Int * b.Int)
	case ir.OpAnd:
		return IntV(a.Int & b.Int)
	case ir.OpOr:
		return IntV(a.Int | b.Int)
	default:
		return IntV(a.Int ^ b.Int)
	}
}

// execInvoke interprets a call: framework concurrency/GUI APIs get their
// runtime semantics; everything else dispatches into IR bodies.
func (m *Machine) execInvoke(inv *ir.Invoke, locals map[string]Value, depth int) Value {
	argv := make([]Value, len(inv.Args))
	for i, a := range inv.Args {
		argv[i] = locals[a]
	}
	recv := NullV()
	if inv.Recv != "" {
		recv = locals[inv.Recv]
	}

	if api, ok := frontend.Recognize(m.prog, inv); ok {
		return m.execAPI(inv, api, recv, argv, depth)
	}
	// Looper accessors.
	if inv.Class == frontend.LooperClass &&
		(inv.Method == frontend.GetMainLooper || inv.Method == frontend.MyLooper) {
		return RefV(m.looperObj)
	}

	switch inv.Kind {
	case ir.InvokeStatic:
		return m.call(m.prog.ResolveMethod(inv.Class, inv.Method), NullV(), argv, depth+1)
	case ir.InvokeSpecial:
		if recv.Kind != VRef || recv.Ref == nil {
			return NullV()
		}
		return m.call(m.prog.ResolveMethod(inv.Class, inv.Method), recv, argv, depth+1)
	default:
		if recv.Kind != VRef || recv.Ref == nil {
			return NullV()
		}
		return m.call(m.prog.ResolveMethod(recv.Ref.Class, inv.Method), recv, argv, depth+1)
	}
}

// looperOfHandler resolves the looper object a handler is bound to
// (nil → main looper).
func looperOfHandler(recv Value) *Object {
	if recv.Kind != VRef || recv.Ref == nil {
		return nil
	}
	l := recv.Ref.Get("looper")
	if l.Kind == VRef {
		return l.Ref
	}
	return nil
}

// execAPI implements the framework API runtime semantics.
func (m *Machine) execAPI(inv *ir.Invoke, api frontend.APICall, recv Value, argv []Value, depth int) Value {
	cur := m.curID()
	switch api.Kind {
	case frontend.APIFindViewByID:
		if len(argv) > 0 && argv[0].Kind == VInt {
			return RefV(m.viewObj(int(argv[0].Int)))
		}
		return RefV(m.viewObj(0))

	case frontend.APISetListener:
		if len(argv) > 0 && argv[0].Kind == VRef && argv[0].Ref != nil {
			m.gui = append(m.gui, &guiHandler{
				label:     api.Callback + "[" + argv[0].Ref.Class + "]",
				listener:  argv[0].Ref,
				callback:  api.Callback,
				enabledBy: cur,
			})
		}
		return NullV()

	case frontend.APIExecuteAsyncTask:
		if recv.Kind != VRef || recv.Ref == nil {
			return NullV()
		}
		task := recv.Ref
		// onPreExecute runs synchronously on the calling thread.
		if pre := m.prog.ResolveMethod(task.Class, frontend.OnPreExecute); pre != nil && !pre.Class.Framework {
			m.call(pre, recv, nil, depth+1)
		}
		m.bgTasks = append(m.bgTasks, &pendingEvent{
			kind:     EvBackground,
			label:    "doInBackground[" + task.Class + "]",
			postedBy: cur,
			run: func(mm *Machine) {
				result := mm.call(mm.prog.ResolveMethod(task.Class, frontend.DoInBackground), recv, nil, 0)
				bgID := mm.curID()
				if post := mm.prog.ResolveMethod(task.Class, frontend.OnPostExecute); post != nil && !post.Class.Framework {
					mm.enqueue(nil, &pendingEvent{
						kind:     EvMain,
						label:    "onPostExecute[" + task.Class + "]",
						postedBy: bgID,
						run: func(m3 *Machine) {
							m3.call(post, recv, []Value{result}, 0)
						},
					})
				}
			},
		})
		return NullV()

	case frontend.APIThreadStart:
		if recv.Kind != VRef || recv.Ref == nil {
			return NullV()
		}
		t := recv.Ref
		m.bgTasks = append(m.bgTasks, &pendingEvent{
			kind: EvBackground, label: "run[" + t.Class + "]", postedBy: cur,
			run: func(mm *Machine) {
				mm.call(mm.prog.ResolveMethod(t.Class, frontend.Run), recv, nil, 0)
			},
		})
		return NullV()

	case frontend.APIExecutorExecute, frontend.APITimerSchedule:
		if api.Arg < len(argv) && argv[api.Arg].Kind == VRef && argv[api.Arg].Ref != nil {
			r := argv[api.Arg]
			m.bgTasks = append(m.bgTasks, &pendingEvent{
				kind: EvBackground, label: "run[" + r.Ref.Class + "]", postedBy: cur,
				run: func(mm *Machine) {
					mm.call(mm.prog.ResolveMethod(r.Ref.Class, frontend.Run), r, nil, 0)
				},
			})
		}
		return NullV()

	case frontend.APIPostRunnable:
		if api.Arg < len(argv) && argv[api.Arg].Kind == VRef && argv[api.Arg].Ref != nil {
			r := argv[api.Arg]
			var target *Object
			if api.Target == frontend.TargetHandlerLooper {
				target = looperOfHandler(recv)
			}
			m.enqueue(target, &pendingEvent{
				kind: EvMain, label: "run[" + r.Ref.Class + "]",
				postedBy: cur, delayed: api.Delayed,
				run: func(mm *Machine) {
					mm.call(mm.prog.ResolveMethod(r.Ref.Class, frontend.Run), r, nil, 0)
				},
			})
		}
		return NullV()

	case frontend.APISendMessage:
		if recv.Kind != VRef || recv.Ref == nil {
			return NullV()
		}
		h := recv.Ref
		var msg Value
		if inv.Method == frontend.SendEmptyMessage {
			mo := m.alloc(frontend.MessageClass)
			if len(argv) > 0 {
				mo.Set("what", argv[0])
			}
			msg = RefV(mo)
		} else if len(argv) > 0 {
			msg = argv[0]
		}
		m.enqueue(looperOfHandler(recv), &pendingEvent{
			kind: EvMain, label: "handleMessage[" + h.Class + "]",
			postedBy: cur, delayed: api.Delayed,
			run: func(mm *Machine) {
				mm.call(mm.prog.ResolveMethod(h.Class, frontend.HandleMessage), recv, []Value{msg}, 0)
			},
		})
		return NullV()

	case frontend.APIRegisterReceiver:
		if api.Arg < len(argv) && argv[api.Arg].Kind == VRef && argv[api.Arg].Ref != nil {
			r := argv[api.Arg].Ref
			m.receivers = append(m.receivers, &guiHandler{
				label: "onReceive[" + r.Class + "]", listener: r,
				callback: frontend.OnReceive, enabledBy: cur,
			})
		}
		return NullV()

	case frontend.APIUnregisterReceiver:
		if api.Arg < len(argv) && argv[api.Arg].Kind == VRef {
			target := argv[api.Arg].Ref
			for i, h := range m.receivers {
				if h.listener == target {
					m.receivers = append(m.receivers[:i], m.receivers[i+1:]...)
					break
				}
			}
		}
		return NullV()

	case frontend.APIStartService:
		for _, comp := range m.App.Manifest.Services {
			comp := comp
			svc := m.alloc(comp.Class)
			m.enqueue(nil, &pendingEvent{
				kind: EvSystem, label: "onStartCommand[" + comp.Class + "]", postedBy: cur,
				run: func(mm *Machine) {
					mm.invoke(svc, frontend.OnStartCommand, []Value{NullV()})
				},
			})
		}
		return NullV()

	case frontend.APIBindService:
		if api.Arg < len(argv) && argv[api.Arg].Kind == VRef && argv[api.Arg].Ref != nil {
			conn := argv[api.Arg]
			m.enqueue(nil, &pendingEvent{
				kind: EvSystem, label: "onServiceConnected[" + conn.Ref.Class + "]", postedBy: cur,
				run: func(mm *Machine) {
					mm.call(mm.prog.ResolveMethod(conn.Ref.Class, frontend.OnServiceConnected), conn, nil, 0)
				},
			})
		}
		return NullV()

	case frontend.APIStartActivity:
		return NullV() // single-activity simulation: transition ignored
	}
	return NullV()
}

// RegisterManifestReceivers enables manifest-declared receivers before
// the run (the framework instantiates them on demand).
func (m *Machine) RegisterManifestReceivers() {
	for _, comp := range m.App.Manifest.Receivers {
		if m.prog.ResolveMethod(comp.Class, frontend.OnReceive) == nil {
			continue
		}
		obj := m.alloc(comp.Class)
		m.receivers = append(m.receivers, &guiHandler{
			label: "onReceive[" + comp.Class + "]", listener: obj,
			callback: frontend.OnReceive, enabledBy: -1,
		})
	}
}
