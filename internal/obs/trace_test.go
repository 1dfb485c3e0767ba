package obs

import (
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

var allocSink []byte

// TestSpanAllocTracksTotalAlloc: spans read the runtime's cumulative
// TotalAlloc counter (through runtime/metrics): a sample taken between
// two runtime.ReadMemStats calls falls between their TotalAlloc values,
// and a span around a 1 MiB allocation reports at least 1 MiB.
func TestSpanAllocTracksTotalAlloc(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got := readAlloc()
	runtime.ReadMemStats(&after)
	if got < before.TotalAlloc || got > after.TotalAlloc {
		t.Errorf("readAlloc = %d, outside TotalAlloc [%d, %d]", got, before.TotalAlloc, after.TotalAlloc)
	}
	tr := New("root")
	s := tr.Start("alloc")
	allocSink = make([]byte, 1<<20)
	s.End()
	if a := tr.Snapshot().Trace.Children[0].AllocBytes; a < 1<<20 {
		t.Errorf("span around a 1 MiB allocation reports %d bytes", a)
	}
}

func TestSpanNesting(t *testing.T) {
	tr := New("root")
	a := tr.Start("a")
	a1 := tr.Start("a1")
	a1.End()
	a2 := tr.Start("a2")
	a2.End()
	a.End()
	b := tr.Start("b")
	b.End()

	snap := tr.Snapshot()
	if snap.Trace.Name != "root" {
		t.Fatalf("root name = %q", snap.Trace.Name)
	}
	if len(snap.Trace.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(snap.Trace.Children))
	}
	sa := snap.Trace.Children[0]
	if sa.Name != "a" || len(sa.Children) != 2 {
		t.Fatalf("span a = %q with %d children, want a/2", sa.Name, len(sa.Children))
	}
	if sa.Children[0].Name != "a1" || sa.Children[1].Name != "a2" {
		t.Fatalf("a's children = %q, %q", sa.Children[0].Name, sa.Children[1].Name)
	}
	if snap.Trace.Children[1].Name != "b" {
		t.Fatalf("second child = %q, want b", snap.Trace.Children[1].Name)
	}
	// The open root reports elapsed time; closed children report fixed
	// durations no longer than the root's.
	if snap.Trace.DurationNS <= 0 {
		t.Fatalf("root duration = %d, want > 0", snap.Trace.DurationNS)
	}
	if sa.DurationNS > snap.Trace.DurationNS {
		t.Fatalf("child longer than root: %d > %d", sa.DurationNS, snap.Trace.DurationNS)
	}
}

func TestSpanEndIsIdempotentAndOutOfOrderSafe(t *testing.T) {
	tr := New("root")
	a := tr.Start("a")
	b := tr.Start("b")
	a.End() // out of order: closes a, reopens root
	b.End() // b already detached from the open chain; must not panic
	a.End() // idempotent
	c := tr.Start("c")
	c.End()
	snap := tr.Snapshot()
	if n := len(snap.Trace.Children); n != 2 {
		t.Fatalf("root children = %d, want 2 (a, c)", n)
	}
	if snap.Trace.Children[1].Name != "c" {
		t.Fatalf("second root child = %q, want c (cur must pop past b)", snap.Trace.Children[1].Name)
	}
}

func TestNilTraceAndSpanAreNoOps(t *testing.T) {
	var tr *Trace
	s := tr.Start("x")
	s.End()
	tr.Count("c", 1)
	tr.Gauge("g", 1)
	tr.Series("s", "l", 1)
	if tr.Counter("c") != 0 || tr.GaugeValue("g") != 0 {
		t.Fatal("nil trace must read zeros")
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil trace snapshot must be nil")
	}
	if s.Duration() != 0 || s.Name() != "" {
		t.Fatal("nil span must read zeros")
	}
	if Format(nil) != "" {
		t.Fatal("Format(nil) must be empty")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New("analyze")
	s := tr.Start("shbg")
	time.Sleep(time.Millisecond)
	s.End()
	tr.Count("shbg.edges.lifecycle", 42)
	tr.Gauge("pointer.pts_max", 7)
	tr.Series("refute.pair_paths", "p1", 100)
	tr.Series("refute.pair_paths", "p2", 3)

	raw, err := tr.Snapshot().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("round-trip unmarshal: %v", err)
	}
	if back.Trace.Name != "analyze" || len(back.Trace.Children) != 1 {
		t.Fatalf("trace tree lost in round trip: %+v", back.Trace)
	}
	if back.Trace.Children[0].DurationNS < int64(time.Millisecond) {
		t.Fatalf("child duration = %dns, want >= 1ms", back.Trace.Children[0].DurationNS)
	}
	if back.Counters["shbg.edges.lifecycle"] != 42 {
		t.Fatalf("counter lost: %v", back.Counters)
	}
	if back.Gauges["pointer.pts_max"] != 7 {
		t.Fatalf("gauge lost: %v", back.Gauges)
	}
	pts := back.Series["refute.pair_paths"]
	if len(pts) != 2 || pts[0].Label != "p1" || pts[0].Value != 100 {
		t.Fatalf("series lost: %v", pts)
	}
}

func TestFormatBreakdown(t *testing.T) {
	tr := New("analyze")
	s := tr.Start("cgpa")
	s.End()
	tr.Count("pointer.passes", 3)
	tr.Gauge("pointer.pts_max", 9)
	tr.Series("refute.pair_paths", "p", 5)
	out := Format(tr.Snapshot())
	for _, want := range []string{"analyze", "cgpa", "counters", "pointer.passes", "gauges", "pointer.pts_max", "series", "refute.pair_paths"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format output missing %q:\n%s", want, out)
		}
	}
}
