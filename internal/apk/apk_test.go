package apk_test

import (
	"strings"
	"testing"

	"sierra/internal/apk"
	"sierra/internal/corpus"
	"sierra/internal/frontend"
	"sierra/internal/ir"
)

func TestHandmadeAppsValidate(t *testing.T) {
	for _, app := range []*apk.App{corpus.NewsApp(), corpus.DatabaseApp(), corpus.SudokuTimerApp()} {
		if err := app.Validate(); err != nil {
			t.Errorf("%s: %v", app.Name, err)
		}
		if !app.Program.Finalized() {
			t.Errorf("%s: program not finalized", app.Name)
		}
	}
}

func TestLauncherSelection(t *testing.T) {
	app := corpus.NewsApp()
	if l := app.Launcher(); l == nil || l.Class != "NewsActivity" {
		t.Fatalf("Launcher = %v", l)
	}
	app.Manifest.Activities = append(app.Manifest.Activities, apk.Component{Class: "NewsActivity2"})
	app.Manifest.MainActivity = "NewsActivity2"
	if l := app.Launcher(); l.Class != "NewsActivity2" {
		t.Fatalf("MainActivity override ignored: %v", l)
	}
	empty := &apk.App{}
	if empty.Launcher() != nil {
		t.Fatal("empty app should have no launcher")
	}
}

func TestFindViewAndViewIDs(t *testing.T) {
	app := corpus.NewsApp()
	v := app.FindView("main", 101)
	if v == nil || v.Type != frontend.RecycleViewClass {
		t.Fatalf("FindView(101) = %v", v)
	}
	if app.FindView("main", 999) != nil {
		t.Fatal("unknown id should be nil")
	}
	if app.FindView("nope", 101) != nil {
		t.Fatal("unknown layout should be nil")
	}
	ids := app.ViewIDs()
	for _, id := range []int{100, 101, 102} {
		if ids[id] == nil {
			t.Errorf("ViewIDs missing %d", id)
		}
	}
}

func TestAllViewsPreOrder(t *testing.T) {
	app := corpus.NewsApp()
	vs := app.Layouts["main"].AllViews()
	if len(vs) != 3 || vs[0].ID != 100 {
		t.Fatalf("AllViews = %v", vs)
	}
}

func TestBytecodeSizeScalesWithCode(t *testing.T) {
	news := corpus.NewsApp()
	small := corpus.SudokuTimerApp()
	if news.BytecodeSize() <= 0 {
		t.Fatal("size must be positive")
	}
	// The news app has more app classes/statements than the timer app.
	if news.BytecodeSize() <= small.BytecodeSize()/2 {
		t.Errorf("sizes: news %d vs sudoku %d", news.BytecodeSize(), small.BytecodeSize())
	}
	// Framework code must not count: same app without app classes ~ 0.
	p := ir.NewProgram()
	frontend.InstallFramework(p)
	empty := &apk.App{Name: "empty", Program: p}
	if empty.BytecodeSize() != 0 {
		t.Errorf("framework-only size = %d, want 0", empty.BytecodeSize())
	}
}

func TestValidateCatchesBrokenApps(t *testing.T) {
	app := corpus.NewsApp()
	app.Manifest.Activities[0].Class = "Missing"
	if err := app.Validate(); err == nil {
		t.Error("missing activity class not caught")
	}

	app = corpus.NewsApp()
	app.Manifest.Activities[0].Layout = "nope"
	if err := app.Validate(); err == nil {
		t.Error("unknown layout not caught")
	}

	app = corpus.NewsApp()
	app.Manifest.Receivers = []apk.Component{{Class: "NewsActivity"}}
	if err := app.Validate(); err == nil {
		t.Error("non-receiver class in receivers not caught")
	}

	app = corpus.NewsApp()
	app.Layouts["main"].Root.Children[1].XMLCallbacks = map[string]string{"onClick": "noSuchMethod"}
	if err := app.Validate(); err == nil {
		t.Error("dangling XML callback not caught")
	}

	// Callbacks are swept once, after the first activity's checks: a
	// dangling callback outranks a broken second activity.
	app = corpus.NewsApp()
	app.Layouts["main"].Root.Children[1].XMLCallbacks = map[string]string{"onClick": "noSuchMethod"}
	app.Manifest.Activities = append(app.Manifest.Activities, apk.Component{Class: "Missing"})
	if err := app.Validate(); err == nil || !strings.Contains(err.Error(), `XML callback "noSuchMethod"`) {
		t.Errorf("dangling callback with a broken second activity: got %v, want the callback error", err)
	}
}

func TestActivityComponentLookup(t *testing.T) {
	app := corpus.DatabaseApp()
	if c := app.ActivityComponent("MainActivity"); c == nil {
		t.Fatal("MainActivity not found")
	}
	if c := app.ActivityComponent("Nope"); c != nil {
		t.Fatal("bogus component found")
	}
}
