// Package corpus provides the apps SIERRA is evaluated on: faithful IR
// models of the paper's motivating examples (Figs 1, 2, 8), the 20-app
// named dataset mirroring Table 2, and the 174-app generated dataset.
//
// It substitutes for the Gator benchmark APKs and the F-Droid corpus the
// paper analyzes: the real packages are unavailable, so each app here
// embeds the same race patterns (unordered async/GUI accesses, guarded
// ad-hoc synchronization, context-sensitivity aliasing traps) the paper's
// pipeline exercises.
package corpus

import (
	"sierra/internal/apk"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// View ids used by the hand-made apps.
const (
	rootViewID  = 100
	recyclerID  = 101
	buttonID    = 102
	timerViewID = 103
)

// NewsApp models Figure 1: an intra-component race in a news activity.
// onClick starts a LoaderTask (AsyncTask); doInBackground updates the
// adapter's data from a background thread while a scroll event on the
// main thread reads it through the RecycleView — unordered, so racy.
// onPostExecute's notifyDataSetChanged races with the scroll read too.
func NewsApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	// class NewsActivity extends Activity
	//   implements OnClickListener, OnScrollListener
	act := ir.NewClass("NewsActivity", frontend.ActivityClass,
		frontend.OnClickListener, frontend.OnScrollListener)
	act.Fields = []string{"rv", "adapter"}
	{
		b := ir.NewMethodBuilder(frontend.OnCreate)
		b.Int("idRv", recyclerID)
		b.Call("rv", "this", "NewsActivity", frontend.FindViewByID, "idRv")
		b.NewObj("adapter", "NewsAdapter")
		b.Call("", "rv", frontend.RecycleViewClass, frontend.SetAdapter, "adapter")
		b.Store("this", "rv", "rv")
		b.Store("this", "adapter", "adapter")
		b.Int("idBtn", buttonID)
		b.Call("btn", "this", "NewsActivity", frontend.FindViewByID, "idBtn")
		b.Call("", "btn", frontend.ViewClass, frontend.SetOnClickListener, "this")
		b.Call("", "rv", frontend.ViewClass, frontend.SetOnScrollListener, "this")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnClick, "v")
		b.Load("a", "this", "adapter")
		b.NewObj("task", "LoaderTask")
		b.CallSpecial("", "task", "LoaderTask", "<init>", "a")
		b.Call("", "task", "LoaderTask", frontend.Execute)
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		// onScroll reads the adapter state through the RecycleView's
		// position lookup — the racy main-thread read.
		b := ir.NewMethodBuilder(frontend.OnScroll, "v", "pos")
		b.Load("rv", "this", "rv")
		b.Call("item", "rv", frontend.RecycleViewClass, "getViewForPosition", "pos")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	p.AddClass(act)

	// class NewsAdapter extends BaseAdapter (framework body carries the
	// mData/mCacheValid accesses).
	p.AddClass(ir.NewClass("NewsAdapter", frontend.AdapterClass))

	// class LoaderTask extends AsyncTask { final NewsAdapter adapter; … }
	task := ir.NewClass("LoaderTask", frontend.AsyncTaskClass)
	task.Fields = []string{"adapter"}
	{
		b := ir.NewMethodBuilder("<init>", "a")
		b.Store("this", "adapter", "a")
		b.Ret("")
		task.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.DoInBackground)
		b.Call("newslist", "this", "LoaderTask", "download")
		b.Load("a", "this", "adapter")
		b.Call("", "a", "NewsAdapter", "add", "newslist")
		b.Ret("")
		task.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder("download")
		b.NewObj("d", frontend.BundleClass)
		b.Ret("d")
		task.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnPostExecute, "news")
		b.Load("a", "this", "adapter")
		b.Call("", "a", "NewsAdapter", "notifyDataSetChanged")
		b.Ret("")
		task.AddMethod(b.Build())
	}
	p.AddClass(task)
	p.Finalize()

	return &apk.App{
		Name:    "newsapp",
		Program: p,
		Manifest: apk.Manifest{
			Package:    "com.example.news",
			Activities: []apk.Component{{Class: "NewsActivity", Layout: "main"}},
		},
		Layouts: map[string]*apk.Layout{
			"main": {
				Name: "main",
				Root: &apk.View{
					ID:   rootViewID,
					Type: frontend.ViewClass,
					Children: []*apk.View{
						{ID: recyclerID, Type: frontend.RecycleViewClass},
						{ID: buttonID, Type: frontend.ButtonClass},
					},
				},
			},
		},
	}
}

// DatabaseApp models Figure 2: an inter-component "Activity vs Broadcast
// Receiver" race. onStop closes the database while a broadcast delivered
// in the background-state window calls update() on it.
func DatabaseApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	act := ir.NewClass("MainActivity", frontend.ActivityClass)
	act.Fields = []string{"mDB", "recv"}
	{
		b := ir.NewMethodBuilder(frontend.OnCreate)
		b.NewObj("db", frontend.SQLiteDatabaseClass)
		b.Store("this", "mDB", "db")
		b.NewObj("r", "DataReceiver")
		b.CallSpecial("", "r", "DataReceiver", "<init>", "this")
		b.Store("this", "recv", "r")
		b.NewObj("filter", frontend.IntentFilterClass)
		b.Call("", "this", "MainActivity", frontend.RegisterReceiver, "r", "filter")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnStart)
		b.Load("db", "this", "mDB")
		b.Call("", "db", frontend.SQLiteDatabaseClass, "open")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnStop)
		b.Load("db", "this", "mDB")
		b.Call("", "db", frontend.SQLiteDatabaseClass, "close")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnDestroy)
		b.Load("r", "this", "recv")
		b.Call("", "this", "MainActivity", frontend.UnregisterReceiver, "r")
		b.Null("nul")
		b.Store("this", "mDB", "nul")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	p.AddClass(act)

	recv := ir.NewClass("DataReceiver", frontend.ReceiverClass)
	recv.Fields = []string{"act"}
	{
		b := ir.NewMethodBuilder("<init>", "a")
		b.Store("this", "act", "a")
		b.Ret("")
		recv.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnReceive, "ctx", "intent")
		b.Call("bundle", "intent", frontend.IntentClass, "getExtras")
		b.Load("a", "this", "act")
		b.Load("db", "a", "mDB")
		b.Call("", "db", frontend.SQLiteDatabaseClass, "update", "bundle")
		b.Ret("")
		recv.AddMethod(b.Build())
	}
	p.AddClass(recv)
	p.Finalize()

	return &apk.App{
		Name:    "dbapp",
		Program: p,
		Manifest: apk.Manifest{
			Package:    "com.example.db",
			Activities: []apk.Component{{Class: "MainActivity"}},
			Receivers:  []apk.Component{{Class: "DataReceiver", IntentFilters: []string{"com.example.DATA"}}},
		},
		Layouts: map[string]*apk.Layout{},
	}
}

// SudokuTimerApp models Figure 8: the OpenSudoku timer pattern whose
// mAccumTime "race" is ad-hoc-synchronized by the mIsRunning guard and
// must be refuted by backward symbolic execution. The guard variable
// itself (mIsRunning read in run() vs write in stop()) remains a true —
// though arguably benign — race.
func SudokuTimerApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)

	act := ir.NewClass("SudokuActivity", frontend.ActivityClass)
	act.Fields = []string{"mIsRunning", "mAccumTime", "rootView", "runner"}
	{
		b := ir.NewMethodBuilder(frontend.OnCreate)
		b.Int("id", timerViewID)
		b.Call("v", "this", "SudokuActivity", frontend.FindViewByID, "id")
		b.Store("this", "rootView", "v")
		b.NewObj("r", "TimerRunnable")
		b.CallSpecial("", "r", "TimerRunnable", "<init>", "this")
		b.Store("this", "runner", "r")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnResume)
		b.Bool("t", true)
		b.Store("this", "mIsRunning", "t")
		b.Load("v", "this", "rootView")
		b.Load("r", "this", "runner")
		b.Call("", "v", frontend.ViewClass, frontend.Post, "r")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		b := ir.NewMethodBuilder(frontend.OnPause)
		b.Call("", "this", "SudokuActivity", "stop")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		// void stop() { if (mIsRunning) { mIsRunning = false; mAccumTime = …; } }
		b := ir.NewMethodBuilder("stop")
		b.Load("flag", "this", "mIsRunning")
		then, els := b.If("flag", ir.CmpEQ, ir.BoolOperand(true))
		b.SetBlock(then)
		b.Bool("f", false)
		b.Store("this", "mIsRunning", "f")
		b.Int("t", 0)
		b.Store("this", "mAccumTime", "t")
		b.Ret("")
		b.SetBlock(els)
		b.Ret("")
		act.AddMethod(b.Build())
	}
	p.AddClass(act)

	run := ir.NewClass("TimerRunnable", frontend.Object, frontend.RunnableIface)
	run.Fields = []string{"act"}
	{
		b := ir.NewMethodBuilder("<init>", "a")
		b.Store("this", "act", "a")
		b.Ret("")
		run.AddMethod(b.Build())
	}
	{
		// void run() { if (act.mIsRunning) { act.mAccumTime = …;
		//   if (*) postDelayed(this) else act.mIsRunning = false; } }
		b := ir.NewMethodBuilder(frontend.Run)
		b.Load("a", "this", "act")
		b.Load("flag", "a", "mIsRunning")
		then, els := b.If("flag", ir.CmpEQ, ir.BoolOperand(true))
		b.SetBlock(then)
		b.Int("t", 1)
		b.Store("a", "mAccumTime", "t")
		repost, stopArm := b.IfStar()
		b.SetBlock(repost)
		b.Load("v", "a", "rootView")
		b.Int("delay", 1000)
		b.Call("", "v", frontend.ViewClass, frontend.PostDelayed, "this", "delay")
		b.Ret("")
		b.SetBlock(stopArm)
		b.Bool("f", false)
		b.Store("a", "mIsRunning", "f")
		b.Ret("")
		b.SetBlock(els)
		b.Ret("")
		run.AddMethod(b.Build())
	}
	p.AddClass(run)
	p.Finalize()

	return &apk.App{
		Name:    "opensudoku-timer",
		Program: p,
		Manifest: apk.Manifest{
			Package:    "com.example.sudoku",
			Activities: []apk.Component{{Class: "SudokuActivity", Layout: "main"}},
		},
		Layouts: map[string]*apk.Layout{
			"main": {
				Name: "main",
				Root: &apk.View{ID: timerViewID, Type: frontend.ViewClass},
			},
		},
	}
}

// NullGuardApp models the pointer-guard pattern of §6.4: onClick uses this.data only behind a null check, while a
// broadcast receiver callback nulls it. The guarded pair is refutable —
// the pattern behind EventRacer's pointer-check false positives that
// SIERRA filters (§6.4).
func NullGuardApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	act := ir.NewClass("A", frontend.ActivityClass, frontend.OnClickListener)
	act.Fields = []string{"data", "cache"}
	{
		b := ir.NewMethodBuilder(frontend.OnCreate)
		b.Int("id", 1)
		b.Call("v", "this", "A", frontend.FindViewByID, "id")
		b.Call("", "v", frontend.ViewClass, frontend.SetOnClickListener, "this")
		b.NewObj("d", frontend.BundleClass)
		b.Store("this", "data", "d")
		b.NewObj("r", "Resetter")
		b.CallSpecial("", "r", "Resetter", "<init>", "this")
		b.NewObj("filter", frontend.IntentFilterClass)
		b.Call("", "this", "A", frontend.RegisterReceiver, "r", "filter")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	{
		// onClick: if (data != null) { cache = data }  — guarded use.
		b := ir.NewMethodBuilder(frontend.OnClick, "v")
		b.Load("d", "this", "data")
		then, els := b.If("d", ir.CmpNE, ir.NullOperand())
		b.SetBlock(then)
		b.Store("this", "cache", "d")
		b.Ret("")
		b.SetBlock(els)
		b.Ret("")
		act.AddMethod(b.Build())
	}
	p.AddClass(act)

	recv := ir.NewClass("Resetter", frontend.ReceiverClass)
	recv.Fields = []string{"act"}
	{
		b := ir.NewMethodBuilder("<init>", "a")
		b.Store("this", "act", "a")
		b.Ret("")
		recv.AddMethod(b.Build())
	}
	{
		// onReceive: act.data = null; act.cache = null.
		b := ir.NewMethodBuilder(frontend.OnReceive, "ctx", "intent")
		b.Load("a", "this", "act")
		b.Null("n")
		b.Store("a", "data", "n")
		b.Store("a", "cache", "n")
		b.Ret("")
		recv.AddMethod(b.Build())
	}
	p.AddClass(recv)
	p.Finalize()
	return &apk.App{
		Name: "nullguard", Program: p,
		Manifest: apk.Manifest{Activities: []apk.Component{{Class: "A", Layout: "l"}}},
		Layouts: map[string]*apk.Layout{"l": {Name: "l",
			Root: &apk.View{ID: 1, Type: frontend.ButtonClass}}},
	}
}

// PostOrderApp gives SHBG rules 4 and 5 posts to order: onCreate posts
// runnables R1 and R2 back to back, where the first post dominates the
// second (rule 4, intra-procedural), then calls postR3 and postR4 in
// turn, each posting one more (rule 5, inter-procedural). Every
// runnable writes the activity's last field, so only those rules keep
// the runnables' writes from being racy pairs. The named dataset and
// the scenario families give the two rules almost nothing to order;
// this app is in neither.
func PostOrderApp() *apk.App {
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	for _, name := range []string{"R1", "R2", "R3", "R4"} {
		r := ir.NewClass(name, frontend.Object, frontend.RunnableIface)
		r.Fields = []string{"act"}
		ctor := ir.NewMethodBuilder("<init>", "a")
		ctor.Store("this", "act", "a")
		ctor.Ret("")
		r.AddMethod(ctor.Build())
		run := ir.NewMethodBuilder(frontend.Run)
		run.Load("a", "this", "act")
		run.Int("n", 1)
		run.Store("a", "last", "n")
		run.Ret("")
		r.AddMethod(run.Build())
		p.AddClass(r)
	}

	act := ir.NewClass("PostActivity", frontend.ActivityClass)
	act.Fields = []string{"last"}
	{
		b := ir.NewMethodBuilder(frontend.OnCreate)
		b.Int("id", rootViewID)
		b.Call("v", "this", "PostActivity", frontend.FindViewByID, "id")
		// One local per post: points-to is flow-insensitive.
		for _, r := range []string{"R1", "R2"} {
			b.NewObj(r, r)
			b.CallSpecial("", r, r, "<init>", "this")
			b.Call("", "v", frontend.ViewClass, frontend.Post, r)
		}
		b.Call("", "this", "PostActivity", "postR3", "v")
		b.Call("", "this", "PostActivity", "postR4", "v")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	for _, r := range []string{"R3", "R4"} {
		b := ir.NewMethodBuilder("post"+r, "v")
		b.NewObj("r", r)
		b.CallSpecial("", "r", r, "<init>", "this")
		b.Call("", "v", frontend.ViewClass, frontend.Post, "r")
		b.Ret("")
		act.AddMethod(b.Build())
	}
	p.AddClass(act)
	p.Finalize()
	return &apk.App{
		Name:    "post-order",
		Program: p,
		Manifest: apk.Manifest{
			Package:    "com.example.postorder",
			Activities: []apk.Component{{Class: "PostActivity", Layout: "main"}},
		},
		Layouts: map[string]*apk.Layout{
			"main": {Name: "main", Root: &apk.View{ID: rootViewID, Type: frontend.ViewClass}},
		},
	}
}
