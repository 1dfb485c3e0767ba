// Package obs is the pipeline's observability substrate: named
// monotonic counters, gauges and histograms, serializable to one JSON
// snapshot. Nothing in a trace grows with the work it observes: a
// counter or gauge is one number per name and a histogram one fixed
// bucket array, so a long-lived daemon can record every job on one
// trace. Time per pipeline layer is core.Ledger's; a traced pass adds
// each layer's ledger time to the core.layer_ms.<layer> histogram.
//
// It is zero-dependency (standard library only) and nil-safe: every
// method on a nil *Trace is a no-op, so pipeline code threads a
// possibly-nil trace without guards and pays only a nil check when
// observability is off.
//
// Metric names are a stable contract (see README.md "Observability");
// benchmarks and the evaluation tables read them by name.
package obs

import "sync"

// Trace is one observed run's counters, gauges and histograms. The
// zero value is ready to use; all methods are safe for concurrent use.
type Trace struct {
	mu     sync.Mutex
	counts map[string]int64
	gauges map[string]float64
	hists  map[string]*Histogram
}

// New returns an empty trace. The name only documents the call site;
// a snapshot does not carry it.
func New(name string) *Trace { return &Trace{} }

// Count adds delta to the named monotonic counter.
func (t *Trace) Count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.counts == nil {
		t.counts = make(map[string]int64)
	}
	t.counts[name] += delta
	t.mu.Unlock()
}

// Gauge sets the named gauge to v (last write wins).
func (t *Trace) Gauge(name string, v float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.gauges == nil {
		t.gauges = make(map[string]float64)
	}
	t.gauges[name] = v
	t.mu.Unlock()
}

// Hist returns the named histogram, creating it on first use. The
// returned handle is stable, so hot paths can resolve it once and
// Observe through it without further map traffic. A nil trace returns
// a nil (no-op) histogram.
func (t *Trace) Hist(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hists == nil {
		t.hists = make(map[string]*Histogram)
	}
	h := t.hists[name]
	if h == nil {
		h = &Histogram{}
		t.hists[name] = h
	}
	return h
}

// Observe records one sample into the named histogram (see Histogram
// for the shared bucket layout).
func (t *Trace) Observe(name string, v float64) {
	t.Hist(name).Observe(v)
}

// Counter reads a counter's current value (0 if absent or t is nil).
func (t *Trace) Counter(name string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.counts[name]
}

// GaugeValue reads a gauge's current value (0 if absent or t is nil).
func (t *Trace) GaugeValue(name string) float64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gauges[name]
}

// Absorb merges a snapshot into the trace: counters sum, gauges keep
// the maximum (the aggregate of peak-style gauges like
// pointer.pts_max), histograms merge bucket-wise. The merge is
// commutative, so a trace that absorbs sibling runs (batch jobs) in
// any order ends the same. No-op when t or s is nil.
func (t *Trace) Absorb(s *Snapshot) {
	if t == nil || s == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(s.Counters) > 0 && t.counts == nil {
		t.counts = make(map[string]int64)
	}
	for k, v := range s.Counters {
		t.counts[k] += v
	}
	if len(s.Gauges) > 0 && t.gauges == nil {
		t.gauges = make(map[string]float64)
	}
	for k, v := range s.Gauges {
		if have, ok := t.gauges[k]; !ok || v > have {
			t.gauges[k] = v
		}
	}
	if len(s.Histograms) > 0 && t.hists == nil {
		t.hists = make(map[string]*Histogram)
	}
	for k, hs := range s.Histograms {
		h := t.hists[k]
		if h == nil {
			h = &Histogram{}
			t.hists[k] = h
		}
		h.merge(hs)
	}
}
