// Package obs is the pipeline's observability substrate: hierarchical
// wall-clock + allocation spans, named monotonic counters, gauges, and
// labelled series, all serializable to one JSON snapshot. It is
// zero-dependency (standard library only) and nil-safe: every method on
// a nil *Trace or nil *Span is a no-op, so pipeline code threads a
// possibly-nil trace without guards and pays only a nil check when
// observability is off.
//
// Counter names are a stable contract (see README.md "Observability");
// benchmarks and the evaluation tables read them by name.
package obs

import (
	"runtime/metrics"
	"sync"
	"time"
)

// Trace is one observed run: a tree of spans plus a counter set. All
// methods are safe for concurrent use.
type Trace struct {
	mu   sync.Mutex
	root *Span
	cur  *Span
	c    Counters
}

// New starts a trace whose root span is open until Snapshot (or an
// explicit End on the returned trace's root).
func New(name string) *Trace {
	t := &Trace{}
	t.root = &Span{name: name, start: time.Now(), startAlloc: readAlloc()}
	t.root.t = t
	t.cur = t.root
	return t
}

// Span is one timed region. Duration and allocation deltas include
// children (allocation is the runtime's cumulative TotalAlloc delta, so
// it counts bytes allocated, not bytes retained).
type Span struct {
	t          *Trace
	parent     *Span
	name       string
	start      time.Time
	startAlloc uint64
	dur        time.Duration
	alloc      int64
	ended      bool
	children   []*Span
}

// readAlloc samples cumulative allocated bytes, the value
// runtime.MemStats.TotalAlloc reports, through runtime/metrics: unlike
// runtime.ReadMemStats it does not stop the world, and every span
// boundary pays it (a serve daemon opens a span per layer of each job).
func readAlloc() uint64 {
	s := [1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s[:])
	return s[0].Value.Uint64()
}

// Start opens a child span under the innermost open span.
func (t *Trace) Start(name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Span{t: t, parent: t.cur, name: name, start: time.Now(), startAlloc: readAlloc()}
	t.cur.children = append(t.cur.children, s)
	t.cur = s
	return s
}

// End closes the span, recording its wall-clock and allocation deltas.
// Ending out of order closes the span where it is and reopens its
// parent; ending twice keeps the first measurement.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if s.ended {
		return
	}
	s.ended = true
	s.dur = time.Since(s.start)
	s.alloc = int64(readAlloc() - s.startAlloc)
	for p := s.t.cur; p != nil; p = p.parent {
		if p == s {
			s.t.cur = s.parent
			break
		}
	}
}

// Name returns the span's name.
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the measured duration (elapsed-so-far if still open).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	if !s.ended {
		return time.Since(s.start)
	}
	return s.dur
}

// Count adds delta to the named monotonic counter.
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.c.Add(name, delta)
}

// Gauge sets the named gauge to v (last write wins).
func (t *Trace) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.c.Gauge(name, v)
}

// Series appends a labelled value to the named series (e.g. one entry
// per refuted pair).
func (t *Trace) Series(series, label string, v int64) {
	if t == nil {
		return
	}
	t.c.Append(series, label, v)
}

// Observe records one sample into the named histogram (see Histogram
// for the shared bucket layout).
func (t *Trace) Observe(name string, v float64) {
	if t == nil {
		return
	}
	t.c.Observe(name, v)
}

// Hist returns the named histogram, creating it on first use, so hot
// paths can resolve the handle once and Observe through it. Nil trace
// returns a nil (no-op) histogram.
func (t *Trace) Hist(name string) *Histogram {
	if t == nil {
		return nil
	}
	return t.c.Hist(name)
}

// Absorb merges a snapshot's counters, gauges, series, and histograms
// into the trace: counters sum, gauges keep the maximum, series append,
// histograms merge bucket-wise. Span trees are not merged (spans
// describe one run's timeline; absorbed snapshots typically come from
// sibling runs, e.g. batch jobs). Safe for concurrent use; no-op when
// t or s is nil.
func (t *Trace) Absorb(s *Snapshot) {
	if t == nil || s == nil {
		return
	}
	t.c.absorb(s.Counters, s.Gauges, s.Series, s.Histograms)
}

// Counter reads a counter's current value (0 if absent or t is nil).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	return t.c.Get(name)
}

// GaugeValue reads a gauge's current value (0 if absent or t is nil).
func (t *Trace) GaugeValue(name string) float64 {
	if t == nil {
		return 0
	}
	return t.c.GaugeValue(name)
}
