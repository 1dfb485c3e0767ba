// Package apk models the analyzable contents of an Android application
// package: the manifest (declared components), inflatable layouts (view
// trees with ids and XML-registered callbacks), and the app's IR program.
//
// It substitutes for the APK container + manifest + layout XML that the
// paper's toolchain parses out of real packages.
package apk

import (
	"fmt"
	"sort"
	"strings"

	"sierra/internal/frontend"
	"sierra/internal/ir"
)

// App bundles everything SIERRA needs about one application.
type App struct {
	// Name identifies the app in reports and tables.
	Name string
	// Program holds the app classes plus the installed framework model.
	// It must be finalized before analysis.
	Program *ir.Program
	// Manifest declares the app's components.
	Manifest Manifest
	// Layouts maps layout name → view tree. Activities reference layouts
	// by name via SetContentView in their metadata (see Manifest).
	Layouts map[string]*Layout
	// Installs is the Google-Play install bracket (Table 2 metadata);
	// empty when unknown.
	Installs string
}

// Manifest lists the declared components, mirroring AndroidManifest.xml.
type Manifest struct {
	Package string
	// Activities in declaration order; the first is the launcher unless
	// MainActivity overrides it.
	Activities []Component
	Services   []Component
	Receivers  []Component
	// MainActivity names the launcher activity class ("" = first).
	MainActivity string
}

// Component is one manifest entry.
type Component struct {
	Class string
	// Layout names the layout this activity inflates ("" = none).
	Layout string
	// IntentFilters lists declared actions (receivers/services).
	IntentFilters []string
}

// Layout is an inflatable view tree.
type Layout struct {
	Name string
	Root *View
}

// View is a node in a layout: a typed widget with a resource id and any
// callbacks registered directly in the XML (android:onClick="...").
type View struct {
	ID   int
	Type string
	// XMLCallbacks maps callback method kind (e.g. "onClick") to the
	// activity method name the XML names.
	XMLCallbacks map[string]string
	Children     []*View
}

// Launcher returns the launcher activity component, or nil when the app
// declares no activities.
func (a *App) Launcher() *Component {
	if len(a.Manifest.Activities) == 0 {
		return nil
	}
	if a.Manifest.MainActivity != "" {
		for i := range a.Manifest.Activities {
			if a.Manifest.Activities[i].Class == a.Manifest.MainActivity {
				return &a.Manifest.Activities[i]
			}
		}
	}
	return &a.Manifest.Activities[0]
}

// ActivityComponent returns the manifest entry for the given class.
func (a *App) ActivityComponent(cls string) *Component {
	for i := range a.Manifest.Activities {
		if a.Manifest.Activities[i].Class == cls {
			return &a.Manifest.Activities[i]
		}
	}
	return nil
}

// FindView resolves a view id within the layout an activity inflates —
// the static model of findViewById. Returns nil when the id is unknown.
func (a *App) FindView(layout string, id int) *View {
	l := a.Layouts[layout]
	if l == nil {
		return nil
	}
	return l.Root.find(id)
}

func (v *View) find(id int) *View {
	if v == nil {
		return nil
	}
	if v.ID == id {
		return v
	}
	for _, c := range v.Children {
		if hit := c.find(id); hit != nil {
			return hit
		}
	}
	return nil
}

// AllViews returns the flattened view tree in pre-order.
func (l *Layout) AllViews() []*View {
	var out []*View
	var walk func(*View)
	walk = func(v *View) {
		if v == nil {
			return
		}
		out = append(out, v)
		for _, c := range v.Children {
			walk(c)
		}
	}
	walk(l.Root)
	return out
}

// ViewIDs returns a map id → view across all layouts; duplicate ids in
// different layouts are the same logical view per the paper's
// InflatedViewContext ("two inflated view objects are considered aliased
// when they have the same ids").
func (a *App) ViewIDs() map[int]*View {
	ids := make(map[int]*View)
	for _, n := range sortedKeys(a.Layouts) {
		for _, v := range a.Layouts[n].AllViews() {
			if _, dup := ids[v.ID]; !dup {
				ids[v.ID] = v
			}
		}
	}
	return ids
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BytecodeSize estimates the app's .dex size in bytes. Real Dalvik
// encodes roughly 20–40 bytes per instruction plus constant-pool
// overhead; the constant here only needs to rank apps the way Table 2
// does, not match dex byte-for-byte.
func (a *App) BytecodeSize() int {
	const bytesPerStmt = 28
	const classOverhead = 220
	total := 0
	for _, c := range a.Program.Classes() {
		if c.Framework {
			continue
		}
		total += classOverhead
		for _, m := range c.MethodsSorted() {
			total += 40 + bytesPerStmt*m.NumStmts()
		}
	}
	return total
}

// Validate checks internal consistency: manifest classes exist and are of
// the right framework kind, layouts referenced by activities exist, XML
// callbacks name real methods, and no class claims the harness prefix.
// The corpus generator and hand-built examples both run through it. It
// checks an app as built or read: analysis later adds harness classes.
func (a *App) Validate() error {
	p := a.Program
	if p == nil {
		return fmt.Errorf("apk %s: nil program", a.Name)
	}
	if err := p.Validate(); err != nil {
		return fmt.Errorf("apk %s: %w", a.Name, err)
	}
	// Harness generation adds frontend.HarnessClassPrefix+activity for
	// every activity, and the race filter treats any class so named as
	// synthetic.
	for _, c := range p.Classes() {
		if strings.HasPrefix(c.Name, frontend.HarnessClassPrefix) {
			return fmt.Errorf("apk %s: class %s uses the reserved prefix %q", a.Name, c.Name, frontend.HarnessClassPrefix)
		}
	}
	check := func(comp Component, super, what string) error {
		c := p.Class(comp.Class)
		if c == nil {
			return fmt.Errorf("apk %s: %s %s not in program", a.Name, what, comp.Class)
		}
		if !p.IsSubtype(comp.Class, super) {
			return fmt.Errorf("apk %s: %s %s does not extend %s", a.Name, what, comp.Class, super)
		}
		return nil
	}
	for i, act := range a.Manifest.Activities {
		if err := check(act, "android.app.Activity", "activity"); err != nil {
			return err
		}
		if act.Layout != "" {
			if _, ok := a.Layouts[act.Layout]; !ok {
				return fmt.Errorf("apk %s: activity %s references unknown layout %q", a.Name, act.Class, act.Layout)
			}
		}
		// XML callbacks resolve against every activity, not this one:
		// one sweep, where the first activity's checks end, decides
		// them all.
		if i == 0 {
			if err := a.checkXMLCallbacks(); err != nil {
				return err
			}
		}
	}
	for _, svc := range a.Manifest.Services {
		if err := check(svc, "android.app.Service", "service"); err != nil {
			return err
		}
	}
	for _, rcv := range a.Manifest.Receivers {
		if err := check(rcv, "android.content.BroadcastReceiver", "receiver"); err != nil {
			return err
		}
	}
	return nil
}

// checkXMLCallbacks requires every layout XML callback to name a method
// of some manifest activity. Layouts and callbacks are checked in name
// order, so which unresolved callback an error names does not depend on
// map order.
func (a *App) checkXMLCallbacks() error {
	for _, ln := range sortedKeys(a.Layouts) {
		for _, v := range a.Layouts[ln].AllViews() {
			for _, kind := range sortedKeys(v.XMLCallbacks) {
				target := v.XMLCallbacks[kind]
				found := false
				for _, comp := range a.Manifest.Activities {
					if a.Program.ResolveMethod(comp.Class, target) != nil {
						found = true
						break
					}
				}
				if !found {
					return fmt.Errorf("apk %s: XML callback %q matches no activity method", a.Name, target)
				}
			}
		}
	}
	return nil
}
