// Package verify implements the static+dynamic combination the paper
// proposes in §6.4: SIERRA's over-approximated race reports are handed
// to the runtime simulator, which searches randomized schedules for
// executions that witness the racy accesses in both orders. A report
// witnessed both ways is dynamically confirmed; a refuted pair must
// never be witnessed both ways — which makes this package double as a
// soundness cross-check between the symbolic refuter and the runtime
// semantics.
package verify

import (
	"sierra/internal/apk"
	"sierra/internal/interp"
	"sierra/internal/ir"
	"sierra/internal/race"
)

// Options tunes the schedule search.
type Options struct {
	// Schedules is how many randomized executions to try (default 50).
	Schedules int
	// EventsPerSchedule bounds each execution (default 60).
	EventsPerSchedule int
	// Seed makes the search reproducible.
	Seed int64
}

// Outcome reports what the schedule search observed for one pair.
type Outcome struct {
	// ObservedAB: some execution performed the A access before the B
	// access on overlapping state; ObservedBA is the reverse.
	ObservedAB, ObservedBA bool
	// Schedules is how many executions were run.
	Schedules int
	// WitnessSeedAB / WitnessSeedBA are seeds of witnessing schedules
	// (-1 when not observed).
	WitnessSeedAB, WitnessSeedBA int64
}

// Confirmed reports whether both orders were observed — the dynamic
// confirmation that the pair's order is genuinely nondeterministic.
func (o Outcome) Confirmed() bool { return o.ObservedAB && o.ObservedBA }

// Witness searches for executions exhibiting the pair's two accesses in
// both orders. factory must produce a fresh app per run (the simulator
// mutates heap state).
func Witness(factory func() *apk.App, pair race.Pair, opts Options) Outcome {
	return WitnessAll(factory, []race.Pair{pair}, opts)[0].Outcome
}

// WitnessErr is Witness with a fallible factory: the first factory
// error aborts the schedule search and is returned alongside whatever
// was observed up to that point (callers exit cleanly instead of
// panicking inside the factory).
func WitnessErr(factory func() (*apk.App, error), pair race.Pair, opts Options) (Outcome, error) {
	out, err := witness(factory, []race.Pair{pair}, opts)
	return out[0].Outcome, err
}

// observation is one executed access: its event index and the concrete
// object it touched.
type observation struct {
	event int
	objID int
}

// posKey identifies a statement position structurally (method qualified
// name + block + index). The simulator runs a fresh program instance per
// schedule, so ir.Pos pointer identity cannot match across instances.
func posKey(p ir.Pos) string {
	if p.Method == nil {
		return ""
	}
	return p.Method.QualifiedName() + "@" + itoa(p.Block) + "." + itoa(p.Index)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// traceIndex is one trace's accesses grouped by static position, plus
// the events that write each concrete object, in event order.
type traceIndex struct {
	byPos map[string][]observation
	// writesTo[objID] lists event ids containing a write to the object.
	writesTo map[int][]int
}

func indexTrace(tr *interp.Trace) traceIndex {
	idx := traceIndex{byPos: map[string][]observation{}, writesTo: map[int][]int{}}
	for _, ev := range tr.Events {
		for _, acc := range ev.Accesses {
			k := posKey(acc.Pos)
			idx.byPos[k] = append(idx.byPos[k], observation{event: ev.ID, objID: acc.ObjID})
			if acc.Kind == interp.Write {
				idx.writesTo[acc.ObjID] = append(idx.writesTo[acc.ObjID], ev.ID)
			}
		}
	}
	return idx
}

// observe looks up accesses at the two static positions (posKey form)
// touching the same concrete object, reporting which orders occurred.
// Same-position pairs (one statement racing with itself across action
// instances) observe on both sides.
//
// An ordering only counts when the two accesses are *adjacent* with
// respect to their object: no event between them writes that object.
// This matches the refuter's semantics — backward symbolic execution
// witnesses the earlier action's final heap state flowing directly into
// the later access (§5). Without adjacency, an intervening event (e.g.
// onResume re-arming Fig 8's guard between stop() and the timer tick)
// would "witness" an ordering the refutation never claimed impossible.
func (idx traceIndex) observe(keyA, keyB string) (ab, ba bool) {
	adjacent := func(objID, lo, hi int) bool {
		for _, w := range idx.writesTo[objID] {
			if w > lo && w < hi {
				return false
			}
		}
		return true
	}
	for _, a := range idx.byPos[keyA] {
		for _, b := range idx.byPos[keyB] {
			if a.objID != b.objID || a.event == b.event {
				continue
			}
			switch {
			case a.event < b.event && adjacent(a.objID, a.event, b.event):
				ab = true
			case b.event < a.event && adjacent(a.objID, b.event, a.event):
				ba = true
			}
		}
	}
	return ab, ba
}

// Report pairs a candidate with its dynamic outcome.
type Report struct {
	Pair    race.Pair
	Outcome Outcome
}

// WitnessAll runs the search for every pair. Each schedule runs once
// and every pair not yet confirmed observes its trace, so a pair's
// Outcome (seeds and schedule count included) is exactly what Witness
// reports for it alone.
func WitnessAll(factory func() *apk.App, pairs []race.Pair, opts Options) []Report {
	out, _ := witness(func() (*apk.App, error) { return factory(), nil }, pairs, opts)
	return out
}

func witness(factory func() (*apk.App, error), pairs []race.Pair, opts Options) ([]Report, error) {
	if opts.Schedules == 0 {
		opts.Schedules = 50
	}
	if opts.EventsPerSchedule == 0 {
		opts.EventsPerSchedule = 60
	}
	out := make([]Report, len(pairs))
	keys := make([][2]string, len(pairs))
	for i, p := range pairs {
		out[i] = Report{Pair: p, Outcome: Outcome{WitnessSeedAB: -1, WitnessSeedBA: -1}}
		keys[i] = [2]string{posKey(p.A.Pos), posKey(p.B.Pos)}
	}
	open := len(pairs)
	for s := 0; s < opts.Schedules && open > 0; s++ {
		app, err := factory()
		if err != nil {
			return out, err
		}
		// The trace depends only on the app and the seed.
		seed := opts.Seed + int64(s)*104729
		m := interp.NewMachine(app, seed)
		m.RegisterManifestReceivers()
		idx := indexTrace(m.Run(opts.EventsPerSchedule))
		for i := range out {
			o := &out[i].Outcome
			if o.Confirmed() {
				continue
			}
			o.Schedules++
			ab, ba := idx.observe(keys[i][0], keys[i][1])
			if ab && !o.ObservedAB {
				o.ObservedAB = true
				o.WitnessSeedAB = seed
			}
			if ba && !o.ObservedBA {
				o.ObservedBA = true
				o.WitnessSeedBA = seed
			}
			if o.Confirmed() {
				open--
			}
		}
	}
	return out, nil
}
