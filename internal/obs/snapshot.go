package obs

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"strings"
)

// Snapshot is a trace frozen for serialization: all counters, gauges
// and histograms. Its JSON form is the `-stats` contract. HistogramLE
// carries the shared bucket upper bounds every HistogramSnapshot's
// counts align with (plus a final +Inf bucket); it is present iff
// Histograms is.
type Snapshot struct {
	Counters    map[string]int64             `json:"counters,omitempty"`
	Gauges      map[string]float64           `json:"gauges,omitempty"`
	Histograms  map[string]HistogramSnapshot `json:"histograms,omitempty"`
	HistogramLE []float64                    `json:"histogram_le,omitempty"`
}

// Snapshot deep-copies the trace's current state.
func (t *Trace) Snapshot() *Snapshot {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &Snapshot{Counters: maps.Clone(t.counts), Gauges: maps.Clone(t.gauges)}
	if len(t.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(t.hists))
		for k, h := range t.hists {
			s.Histograms[k] = h.snapshot()
		}
		s.HistogramLE = HistogramBounds()
	}
	return s
}

// JSON renders the snapshot as indented JSON.
func (s *Snapshot) JSON() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Format renders a human-readable breakdown: counters, gauges, and
// histogram totals in sorted order.
func Format(s *Snapshot) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	if len(s.Counters) > 0 {
		fmt.Fprintf(&b, "counters\n")
		for _, k := range sortedKeys(s.Counters) {
			fmt.Fprintf(&b, "  %-36s %12d\n", k, s.Counters[k])
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintf(&b, "gauges\n")
		for _, k := range sortedKeys(s.Gauges) {
			fmt.Fprintf(&b, "  %-36s %12.2f\n", k, s.Gauges[k])
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintf(&b, "histograms\n")
		for _, k := range sortedKeys(s.Histograms) {
			h := s.Histograms[k]
			mean := 0.0
			if h.Count > 0 {
				mean = h.Sum / float64(h.Count)
			}
			fmt.Fprintf(&b, "  %-36s %6d samples, sum %.2f, mean %.2f\n", k, h.Count, h.Sum, mean)
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
