package obs

import (
	"bytes"
	"math"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	bounds := HistogramBounds()
	// One sample exactly on each bound lands in that bound's bucket
	// (cumulative "le" semantics), one huge sample lands in +Inf.
	for _, b := range bounds {
		h.Observe(b)
	}
	h.Observe(math.MaxFloat64)
	s := h.snapshot()
	if s.Count != int64(len(bounds))+1 {
		t.Fatalf("count = %d, want %d", s.Count, len(bounds)+1)
	}
	for i := range bounds {
		if s.Counts[i] != 1 {
			t.Fatalf("bucket %d (le %g) = %d, want 1", i, bounds[i], s.Counts[i])
		}
	}
	if s.Counts[len(bounds)] != 1 {
		t.Fatalf("+Inf bucket = %d, want 1", s.Counts[len(bounds)])
	}
	// Below the first bound goes into the first bucket.
	h.Observe(0)
	if got := h.snapshot().Counts[0]; got != 2 {
		t.Fatalf("first bucket after Observe(0) = %d, want 2", got)
	}
}

func TestHistogramNil(t *testing.T) {
	var h *Histogram
	h.Observe(1)
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil histogram must read zeros")
	}
}

// TestHistogramStress hammers one Histogram from 16 goroutines; under
// -race this is the concurrency-safety contract.
func TestHistogramStress(t *testing.T) {
	var h Histogram
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				h.Observe(float64(w*perWorker + i))
				_ = h.Count()
				_ = h.Sum()
			}
		}()
	}
	wg.Wait()
	s := h.snapshot()
	if s.Count != workers*perWorker {
		t.Fatalf("count = %d, want %d", s.Count, workers*perWorker)
	}
	var total int64
	for _, c := range s.Counts {
		total += c
	}
	if total != s.Count {
		t.Fatalf("bucket counts sum to %d, want %d", total, s.Count)
	}
	wantSum := float64(workers*perWorker) * float64(workers*perWorker-1) / 2
	if s.Sum != wantSum {
		t.Fatalf("sum = %g, want %g", s.Sum, wantSum)
	}
}

func TestHistogramAbsorb(t *testing.T) {
	a, b := New("a"), New("b")
	a.Observe("x_ms", 1)
	a.Observe("x_ms", 100)
	b.Observe("x_ms", 3)
	b.Observe("y_ms", 7)
	a.Absorb(b.Snapshot())
	s := a.Snapshot()
	if s.Histograms["x_ms"].Count != 3 || s.Histograms["x_ms"].Sum != 104 {
		t.Fatalf("merged x_ms = %+v", s.Histograms["x_ms"])
	}
	if s.Histograms["y_ms"].Count != 1 {
		t.Fatalf("merged y_ms = %+v", s.Histograms["y_ms"])
	}
	if len(s.HistogramLE) != len(HistogramBounds()) {
		t.Fatalf("histogram_le missing: %v", s.HistogramLE)
	}
}

// TestAbsorbOrderDeterminism pins the satellite contract: a trace that
// absorbs the same worker snapshots in any arrival order — the only
// thing a different `-jobs N` can change — serializes byte-identically.
func TestAbsorbOrderDeterminism(t *testing.T) {
	worker := func(id int) *Snapshot {
		tr := New("job")
		tr.Count("race.pairs_emitted", int64(id))
		tr.Gauge("pointer.pts_max", float64(10*id))
		tr.Observe("core.analyze_ms", float64(id))
		return tr.Snapshot()
	}
	snaps := make([]*Snapshot, 8)
	for i := range snaps {
		snaps[i] = worker(i)
	}

	merge := func(order []int) []byte {
		tr := New("batch")
		for _, i := range order {
			tr.Absorb(snaps[i])
		}
		raw, err := tr.Snapshot().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}

	sequential := merge([]int{0, 1, 2, 3, 4, 5, 6, 7})
	for _, order := range [][]int{
		{7, 6, 5, 4, 3, 2, 1, 0},
		{3, 0, 7, 1, 6, 2, 5, 4},
	} {
		if got := merge(order); !bytes.Equal(got, sequential) {
			t.Fatalf("absorb order %v changed the snapshot:\n%s\nvs\n%s", order, got, sequential)
		}
	}
}
