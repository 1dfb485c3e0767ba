package obs

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestCountersConcurrency hammers one Trace's counters, gauges and
// histograms from many goroutines; run under -race this is the
// concurrency-safety contract.
func TestCountersConcurrency(t *testing.T) {
	tr := New("test")
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				tr.Count("hits", 1)
				tr.Gauge("last", float64(i))
				tr.Observe("lat_ms", float64(i))
				_ = tr.Counter("hits")
				_ = tr.GaugeValue("last")
			}
		}()
	}
	wg.Wait()
	if got := tr.Counter("hits"); got != workers*perWorker {
		t.Fatalf("hits = %d, want %d", got, workers*perWorker)
	}
	s := tr.Snapshot()
	if s.Counters["hits"] != workers*perWorker {
		t.Fatalf("snapshot counters = %v", s.Counters)
	}
	if _, ok := s.Gauges["last"]; !ok {
		t.Fatalf("snapshot gauges = %v", s.Gauges)
	}
	if s.Histograms["lat_ms"].Count != workers*perWorker {
		t.Fatalf("snapshot histogram count = %d", s.Histograms["lat_ms"].Count)
	}
}

// TestTraceConcurrency exercises counter writes alongside snapshots
// and absorbs of the trace's own snapshots on separate goroutines.
func TestTraceConcurrency(t *testing.T) {
	tr := New("root")
	sink := New("sink")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Count("n", 1)
				sink.Absorb(tr.Snapshot())
			}
		}()
	}
	wg.Wait()
	if tr.Counter("n") != 2000 {
		t.Fatalf("n = %d, want 2000", tr.Counter("n"))
	}
	if sink.Counter("n") < 2000 {
		t.Fatalf("sink absorbed n = %d, want at least the last snapshot's 2000", sink.Counter("n"))
	}
}

func TestNilCounters(t *testing.T) {
	var tr *Trace
	tr.Count("x", 1)
	tr.Gauge("x", 1)
	tr.Observe("x", 1)
	tr.Hist("x").Observe(1)
	if tr.Counter("x") != 0 || tr.GaugeValue("x") != 0 || tr.Hist("x").Count() != 0 {
		t.Fatal("a nil trace's counters must read zeros")
	}
}

func TestNilTraceIsNoOp(t *testing.T) {
	var tr *Trace
	tr.Absorb(New("x").Snapshot())
	New("x").Absorb(nil)
	if tr.Snapshot() != nil {
		t.Fatal("nil trace snapshot must be nil")
	}
	if Format(nil) != "" {
		t.Fatal("Format(nil) must be empty")
	}
}

// TestSnapshotJSONRoundTrip: the `-stats` document carries counters,
// gauges and histograms, and nothing else — no span tree, no series.
func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New("analyze")
	tr.Count("shbg.edges.lifecycle", 42)
	tr.Gauge("pointer.pts_max", 7)
	tr.Observe("core.layer_ms.shbg", 1.5)

	raw, err := tr.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	for k := range keys {
		switch k {
		case "counters", "gauges", "histograms", "histogram_le":
		default:
			t.Errorf("snapshot JSON has key %q", k)
		}
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Counters["shbg.edges.lifecycle"] != 42 {
		t.Fatalf("counter lost: %v", back.Counters)
	}
	if back.Gauges["pointer.pts_max"] != 7 {
		t.Fatalf("gauge lost: %v", back.Gauges)
	}
	if h := back.Histograms["core.layer_ms.shbg"]; h.Count != 1 || h.Sum != 1.5 {
		t.Fatalf("histogram lost: %+v", h)
	}
}

func TestFormatBreakdown(t *testing.T) {
	tr := New("analyze")
	tr.Count("pointer.passes", 3)
	tr.Gauge("pointer.pts_max", 9)
	tr.Observe("core.layer_ms.cgpa", 2)
	out := Format(tr.Snapshot())
	for _, want := range []string{"counters", "pointer.passes", "gauges", "pointer.pts_max", "histograms", "core.layer_ms.cgpa"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}
