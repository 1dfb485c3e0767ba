package frontend

import "sierra/internal/ir"

// InstallFramework adds the Android Framework model classes to p. Most
// framework methods are empty stubs recognized by name (action-creating
// APIs like AsyncTask.execute must NOT have bodies: the actions package
// reifies their effects as separate actions). A few framework classes
// carry small real bodies — adapters, recycler views, the SQLite model,
// Thread/Handler plumbing — because the paper's race examples (Figs 1, 2)
// race on framework-internal state reached from app code, and the race
// prioritizer distinguishes app/framework accesses.
func InstallFramework(p *ir.Program) {
	add := func(c *ir.Class) {
		c.Framework = true
		p.AddClass(c)
	}

	add(ir.NewClass(Object, ""))
	add(ir.NewClass(RunnableIface, Object))
	add(ir.NewClass(ExecutorIface, Object))
	add(ir.NewClass(IntentFilterClass, Object))

	// Thread: constructor captures an optional Runnable target; the
	// default run() delegates to it. Subclasses override run() directly.
	{
		c := ir.NewClass(ThreadClass, Object)
		c.Fields = []string{"target"}
		init := ir.NewMethodBuilder("<init>", "r")
		init.Store("this", "target", "r")
		init.Ret("")
		c.AddMethod(init.Build())
		run := ir.NewMethodBuilder(Run)
		run.Load("t", "this", "target")
		nn, _ := run.If("t", ir.CmpNE, ir.NullOperand())
		run.SetBlock(nn)
		run.Call("", "t", RunnableIface, Run)
		run.Ret("")
		c.AddMethod(run.Build())
		stub(c, Start)
		add(c)
	}

	// HandlerThread: a background thread owning its own looper. The
	// constructor materializes the looper eagerly (statically the thread
	// is assumed started before the looper is used), so handler→looper
	// binding works through plain field flow — the in-thread
	// reachability shortcut the paper's §4.4 preprocessing provides.
	{
		c := ir.NewClass(HandlerThreadClass, ThreadClass)
		c.Fields = []string{"looper"}
		init := ir.NewMethodBuilder("<initHT>")
		init.NewObj("l", LooperClass)
		init.Store("this", "looper", "l")
		init.Ret("")
		c.AddMethod(init.Build())
		gl := ir.NewMethodBuilder(GetLooper)
		gl.Load("l", "this", "looper")
		gl.Ret("l")
		c.AddMethod(gl.Build())
		add(c)
	}

	// Timer: schedule(task, delay) is recognized as a delayed post.
	{
		c := ir.NewClass(TimerClass, Object)
		stub(c, Schedule, "task", "delay")
		add(c)
	}

	// AsyncTask: execute is an action-creating stub; the callback
	// methods exist as empty virtuals so dispatch resolves when a
	// subclass omits one.
	{
		c := ir.NewClass(AsyncTaskClass, Object)
		stub(c, Execute)
		stub(c, DoInBackground)
		stub(c, OnPreExecute)
		stub(c, OnPostExecute, "result")
		stub(c, OnProgressUpdate, "values")
		add(c)
	}

	// Looper: obtained statically; carries no analyzable state.
	{
		c := ir.NewClass(LooperClass, Object)
		stubStatic(c, GetMainLooper)
		stubStatic(c, MyLooper)
		add(c)
	}

	// Handler: the looper binding is real state (handler→looper
	// inference reads the "looper" field's points-to set).
	{
		c := ir.NewClass(HandlerClass, Object)
		c.Fields = []string{"looper"}
		init := ir.NewMethodBuilder("<init>", "l")
		init.Store("this", "looper", "l")
		init.Ret("")
		c.AddMethod(init.Build())
		stub(c, Post, "r")
		stub(c, PostDelayed, "r", "delay")
		stub(c, SendMessage, "m")
		stub(c, SendEmptyMessage, "what")
		stub(c, SendMessageDelayed, "m", "delay")
		stub(c, HandleMessage, "m")
		// obtainMessage allocates a Message bound to this handler.
		om := ir.NewMethodBuilder(ObtainMessage)
		om.NewObj("m", MessageClass)
		om.Store("m", "target", "this")
		om.Ret("m")
		c.AddMethod(om.Build())
		add(c)
	}

	// Message: what/obj are data the on-demand constant propagation
	// inspects; target is the owning handler.
	{
		c := ir.NewClass(MessageClass, Object)
		c.Fields = []string{"what", "obj", "target"}
		ob := ir.NewStaticMethodBuilder(Obtain)
		ob.NewObj("m", MessageClass)
		ob.Ret("m")
		c.AddMethod(ob.Build())
		add(c)
	}

	// Context and the component classes.
	{
		c := ir.NewClass(ContextClass, Object)
		stub(c, RegisterReceiver, "recv", "filter")
		stub(c, UnregisterReceiver, "recv")
		stub(c, StartService, "intent")
		stub(c, BindService, "intent", "conn")
		stub(c, StartActivity, "intent")
		add(c)
	}
	{
		c := ir.NewClass(ActivityClass, ContextClass)
		for _, lc := range []string{OnCreate, OnStart, OnResume, OnPause, OnStop, OnRestart, OnDestroy} {
			stub(c, lc)
		}
		stub(c, FindViewByID, "id")
		stub(c, RunOnUiThread, "r")
		stub(c, SetAdapter, "a")
		add(c)
	}
	{
		c := ir.NewClass(ServiceClass, ContextClass)
		stub(c, OnCreate)
		stub(c, OnStartCommand, "intent")
		stub(c, OnBind, "intent")
		stub(c, OnDestroy)
		add(c)
	}
	{
		c := ir.NewClass(ReceiverClass, Object)
		stub(c, OnReceive, "ctx", "intent")
		add(c)
	}
	add(ir.NewClass(ProviderClass, Object))

	// Intent / Bundle: enough structure for getExtras()-style flows.
	{
		c := ir.NewClass(IntentClass, Object)
		c.Fields = []string{"extras", "action"}
		ge := ir.NewMethodBuilder("getExtras")
		ge.Load("b", "this", "extras")
		ge.Ret("b")
		c.AddMethod(ge.Build())
		pe := ir.NewMethodBuilder("putExtra", "b")
		pe.Store("this", "extras", "b")
		pe.Ret("")
		c.AddMethod(pe.Build())
		add(c)
	}
	add(ir.NewClass(BundleClass, Object))

	// Views and listeners.
	{
		c := ir.NewClass(ViewClass, Object)
		stub(c, FindViewByID, "id")
		stub(c, SetOnClickListener, "l")
		stub(c, SetOnLongClickListener, "l")
		stub(c, SetOnScrollListener, "l")
		stub(c, SetOnItemClickListener, "l")
		stub(c, SetOnTouchListener, "l")
		stub(c, Post, "r")
		stub(c, PostDelayed, "r", "delay")
		stub(c, "invalidate")
		stub(c, "setText", "t")
		add(c)
	}
	add(ir.NewClass(ButtonClass, ViewClass))
	add(ir.NewClass(TextViewClass, ViewClass))
	add(ir.NewClass(ListViewClass, ViewClass))
	for _, itf := range []string{OnClickListener, OnLongClickListener, OnScrollListener, OnItemClickListener, OnTouchListener, ServiceConnectionIface} {
		add(ir.NewClass(itf, Object))
	}

	// BaseAdapter: mData/mCacheValid are the framework-internal state the
	// Fig 1 race touches (background add vs main-thread view lookup).
	{
		c := ir.NewClass(AdapterClass, Object)
		c.Fields = []string{"mData", "mCacheValid"}
		addM := ir.NewMethodBuilder("add", "item")
		addM.Store("this", "mData", "item")
		addM.Ret("")
		c.AddMethod(addM.Build())
		nd := ir.NewMethodBuilder("notifyDataSetChanged")
		nd.Bool("valid", true).Store("this", "mCacheValid", "valid")
		nd.Ret("")
		c.AddMethod(nd.Build())
		gi := ir.NewMethodBuilder("getItem", "pos")
		gi.Load("d", "this", "mData")
		gi.Ret("d")
		c.AddMethod(gi.Build())
		add(c)
	}

	// RecycleView: caches view positions against its adapter — the other
	// half of the Fig 1 race.
	{
		c := ir.NewClass(RecycleViewClass, ViewClass)
		c.Fields = []string{"mAdapter", "mCachedPos"}
		sa := ir.NewMethodBuilder(SetAdapter, "a")
		sa.Store("this", "mAdapter", "a")
		sa.Ret("")
		c.AddMethod(sa.Build())
		gv := ir.NewMethodBuilder("getViewForPosition", "pos")
		gv.Load("a", "this", "mAdapter")
		gv.Load("d", "a", AdapterField("mData"))
		gv.Load("v", "a", AdapterField("mCacheValid"))
		gv.Store("this", "mCachedPos", "pos")
		gv.Ret("d")
		c.AddMethod(gv.Build())
		add(c)
	}

	// SQLiteDatabase: open/close/update race on mOpen (Fig 2).
	{
		c := ir.NewClass(SQLiteDatabaseClass, Object)
		c.Fields = []string{"mOpen"}
		op := ir.NewMethodBuilder("open")
		op.Bool("t", true).Store("this", "mOpen", "t")
		op.Ret("")
		c.AddMethod(op.Build())
		cl := ir.NewMethodBuilder("close")
		cl.Bool("f", false).Store("this", "mOpen", "f")
		cl.Ret("")
		c.AddMethod(cl.Build())
		up := ir.NewMethodBuilder("update", "data")
		up.Load("o", "this", "mOpen")
		up.Ret("")
		c.AddMethod(up.Build())
		add(c)
	}
}

// IntentFilterClass is declared here (not names.go) because it only
// appears as a plumbing type.
const IntentFilterClass = "android.content.IntentFilter"

// AdapterField returns the adapter-internal field name; a tiny
// indirection so tests and examples reference framework state uniformly.
func AdapterField(name string) string { return name }

// stub attaches an empty virtual method (single void return).
func stub(c *ir.Class, name string, params ...string) {
	b := ir.NewMethodBuilder(name, params...)
	b.Ret("")
	c.AddMethod(b.Build())
}

// stubStatic attaches an empty static method.
func stubStatic(c *ir.Class, name string, params ...string) {
	b := ir.NewStaticMethodBuilder(name, params...)
	b.Ret("")
	c.AddMethod(b.Build())
}

// IsActivity reports whether cls is an Activity subclass.
func IsActivity(p *ir.Program, cls string) bool { return p.IsSubtype(cls, ActivityClass) }

// IsReceiver reports whether cls is a BroadcastReceiver subclass.
func IsReceiver(p *ir.Program, cls string) bool { return p.IsSubtype(cls, ReceiverClass) }

// IsAsyncTask reports whether cls is an AsyncTask subclass.
func IsAsyncTask(p *ir.Program, cls string) bool { return p.IsSubtype(cls, AsyncTaskClass) }

// IsThread reports whether cls is a Thread subclass.
func IsThread(p *ir.Program, cls string) bool { return p.IsSubtype(cls, ThreadClass) }

// IsRunnable reports whether cls implements Runnable.
func IsRunnable(p *ir.Program, cls string) bool { return p.IsSubtype(cls, RunnableIface) }

// IsHandler reports whether cls is a Handler subclass.
func IsHandler(p *ir.Program, cls string) bool { return p.IsSubtype(cls, HandlerClass) }

// IsView reports whether cls is a View subclass.
func IsView(p *ir.Program, cls string) bool { return p.IsSubtype(cls, ViewClass) }
