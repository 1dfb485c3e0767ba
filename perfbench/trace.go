package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one op share Op; the op's
// root span has Parent -1 and every other span names the span that
// caused it.
type span struct {
	Op     int    `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	// Start and End are offsets from the tracer's creation.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory for the whole run; write dumps them when
// the run ends. A nil *tracer records nothing, so the untraced path pays
// one nil check per call site. Safe for concurrent use (stream-small runs
// several analysis workers).
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp opens an op's root span and returns (op id, root span id).
func (t *tracer) newOp(name string) (op, root int) {
	return t.newOpAt(name, time.Now())
}

// newOpAt is newOp with an explicit start, for ops whose start was
// observed before the tracer learned about them.
func (t *tracer) newOpAt(name string, start time.Time) (op, root int) {
	if t == nil {
		return -1, -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	op = t.ops
	t.ops++
	root = len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: root, Parent: -1, Name: name, Start: start.Sub(t.t0)})
	return op, root
}

// begin opens a child span of parent within op.
func (t *tracer) begin(op, parent int, name string) int {
	return t.beginAt(op, parent, name, time.Now())
}

func (t *tracer) beginAt(op, parent int, name string, start time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: start.Sub(t.t0)})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

func (t *tracer) endAt(id int, at time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = at.Sub(t.t0)
	t.mu.Unlock()
}

// write dumps every span as one JSON document.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// ledgerTolerance bounds the unattributed share of op wall clock: the
// per-op remainder not covered by any layer span (argument marshalling,
// verdict filtering, result bookkeeping) must stay under this fraction
// of the summed op wall, or the ledger is not describing the op.
const ledgerTolerance = 0.05

// ledger is the per-layer breakdown derived from a run's spans.
type ledger struct {
	ops int
	// wall is the summed op wall clock (root span durations).
	wall time.Duration
	// self is each layer's summed self time: its span durations minus
	// the parts of those intervals its child spans cover.
	self map[string]time.Duration
	// other is the summed unattributed remainder: op wall minus the self
	// time of every layer span in the op.
	other time.Duration
}

// buildLedger derives self times from a run's spans and checks the
// ledger's shape: every span nests inside its parent, siblings do not
// overlap, and Σ layer self + other = Σ op wall. layer reports whether
// a span name is a ledger layer; spans that are structural only (a job
// wrapper, a replay phase) contribute their self time to other.
func buildLedger(spans []span, layer func(name string) bool) (ledger, error) {
	lg := ledger{self: map[string]time.Duration{}}
	children := map[int][]span{}
	var roots []span
	for _, s := range spans {
		if s.End < s.Start {
			return lg, fmt.Errorf("span %s (op %d) never ended", s.Name, s.Op)
		}
		if s.Parent < 0 {
			roots = append(roots, s)
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
	}
	var walk func(s span) (time.Duration, error)
	// walk returns the self time of s's subtree that no layer claims.
	walk = func(s span) (time.Duration, error) {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, unclaimed time.Duration
		prevEnd := s.Start
		for _, k := range kids {
			if k.Start < prevEnd || k.End > s.End {
				return 0, fmt.Errorf("op %d: span %s [%v,%v] escapes or overlaps inside %s [%v,%v]",
					s.Op, k.Name, k.Start, k.End, s.Name, s.Start, s.End)
			}
			prevEnd = k.End
			covered += k.dur()
			u, err := walk(k)
			if err != nil {
				return 0, err
			}
			unclaimed += u
		}
		self := s.dur() - covered
		if s.Parent >= 0 && layer(s.Name) {
			lg.self[s.Name] += self
			return unclaimed, nil
		}
		return unclaimed + self, nil
	}
	for _, r := range roots {
		u, err := walk(r)
		if err != nil {
			return lg, err
		}
		lg.ops++
		lg.wall += r.dur()
		lg.other += u
	}
	var sum time.Duration
	for _, d := range lg.self {
		sum += d
	}
	if sum+lg.other != lg.wall {
		return lg, fmt.Errorf("ledger does not sum: layers %v + other %v != op wall %v", sum, lg.other, lg.wall)
	}
	if lg.wall > 0 && float64(lg.other) > ledgerTolerance*float64(lg.wall) {
		return lg, fmt.Errorf("unattributed time %v is %.1f%% of op wall %v (tolerance %.0f%%)",
			lg.other, 100*float64(lg.other)/float64(lg.wall), lg.wall, 100*ledgerTolerance)
	}
	return lg, nil
}

// msPerOp renders a summed duration as milliseconds per op.
func (lg ledger) msPerOp(d time.Duration) float64 {
	if lg.ops == 0 {
		return 0
	}
	return float64(d) / 1e6 / float64(lg.ops)
}
