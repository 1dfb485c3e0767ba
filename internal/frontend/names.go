// Package frontend models the Android Framework for analysis purposes: a
// class hierarchy of framework stubs, the callback registry, and the
// recognizer that classifies framework API invocations (AsyncTask.execute,
// Handler.post, findViewById, registerReceiver, …).
//
// It substitutes for DroidEL (view inflation, reflection) plus
// FlowDroid's predefined callback list in the paper's toolchain.
package frontend

// Well-known framework class names. App models extend or implement these.
const (
	Object        = "java.lang.Object"
	RunnableIface = "java.lang.Runnable"
	ThreadClass   = "java.lang.Thread"
	ExecutorIface = "java.util.concurrent.Executor"
	TimerClass    = "java.util.Timer"

	ContextClass  = "android.content.Context"
	ActivityClass = "android.app.Activity"
	ServiceClass  = "android.app.Service"
	ReceiverClass = "android.content.BroadcastReceiver"
	ProviderClass = "android.content.ContentProvider"
	IntentClass   = "android.content.Intent"
	BundleClass   = "android.os.Bundle"

	AsyncTaskClass     = "android.os.AsyncTask"
	HandlerClass       = "android.os.Handler"
	HandlerThreadClass = "android.os.HandlerThread"
	LooperClass        = "android.os.Looper"
	MessageClass       = "android.os.Message"

	ViewClass        = "android.view.View"
	ButtonClass      = "android.widget.Button"
	TextViewClass    = "android.widget.TextView"
	ListViewClass    = "android.widget.ListView"
	RecycleViewClass = "android.widget.RecycleView"
	AdapterClass     = "android.widget.BaseAdapter"

	OnClickListener        = "android.view.View$OnClickListener"
	OnLongClickListener    = "android.view.View$OnLongClickListener"
	OnScrollListener       = "android.widget.OnScrollListener"
	OnItemClickListener    = "android.widget.OnItemClickListener"
	OnTouchListener        = "android.view.View$OnTouchListener"
	ServiceConnectionIface = "android.content.ServiceConnection"

	SQLiteDatabaseClass = "android.database.sqlite.SQLiteDatabase"
)

// HarnessClassPrefix starts the name of every synthetic harness class
// the analysis adds to a program (one per activity). App classes may not
// use it: apk.App.Validate rejects them.
const HarnessClassPrefix = "sierra.harness."

// Lifecycle callback names, in activity lifecycle order. The harness
// generator and SHBG lifecycle rule both key on these.
const (
	OnCreate  = "onCreate"
	OnStart   = "onStart"
	OnResume  = "onResume"
	OnPause   = "onPause"
	OnStop    = "onStop"
	OnRestart = "onRestart"
	OnDestroy = "onDestroy"
)

// Service and receiver callbacks.
const (
	OnReceive             = "onReceive"
	OnStartCommand        = "onStartCommand"
	OnBind                = "onBind"
	OnServiceConnected    = "onServiceConnected"
	OnServiceDisconnected = "onServiceDisconnected"
)

// Task/thread/message callbacks.
const (
	Run              = "run"
	DoInBackground   = "doInBackground"
	OnPreExecute     = "onPreExecute"
	OnPostExecute    = "onPostExecute"
	OnProgressUpdate = "onProgressUpdate"
	HandleMessage    = "handleMessage"
)

// GUI callbacks.
const (
	OnClick     = "onClick"
	OnLongClick = "onLongClick"
	OnScroll    = "onScroll"
	OnItemClick = "onItemClick"
	OnTouch     = "onTouch"
)

// Registration / posting APIs recognized on framework receivers.
const (
	FindViewByID           = "findViewById"
	SetOnClickListener     = "setOnClickListener"
	SetOnLongClickListener = "setOnLongClickListener"
	SetOnScrollListener    = "setOnScrollListener"
	SetOnItemClickListener = "setOnItemClickListener"
	SetOnTouchListener     = "setOnTouchListener"
	SetAdapter             = "setAdapter"
	Execute                = "execute"
	Start                  = "start"
	Post                   = "post"
	PostDelayed            = "postDelayed"
	RunOnUiThread          = "runOnUiThread"
	SendMessage            = "sendMessage"
	SendEmptyMessage       = "sendEmptyMessage"
	SendMessageDelayed     = "sendMessageDelayed"
	ObtainMessage          = "obtainMessage"
	Obtain                 = "obtain"
	RegisterReceiver       = "registerReceiver"
	UnregisterReceiver     = "unregisterReceiver"
	StartService           = "startService"
	BindService            = "bindService"
	StartActivity          = "startActivity"
	Schedule               = "schedule"
	GetMainLooper          = "getMainLooper"
	GetLooper              = "getLooper"
	MyLooper               = "myLooper"
)

// setListenerToCallback maps each set*Listener API to the callback method
// it registers on the listener argument.
var setListenerToCallback = map[string]string{
	SetOnClickListener:     OnClick,
	SetOnLongClickListener: OnLongClick,
	SetOnScrollListener:    OnScroll,
	SetOnItemClickListener: OnItemClick,
	SetOnTouchListener:     OnTouch,
}

// ListenerCallback returns the callback method registered by a
// set*Listener API, and whether the method is one.
func ListenerCallback(method string) (string, bool) {
	cb, ok := setListenerToCallback[method]
	return cb, ok
}
