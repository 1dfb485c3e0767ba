package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// quantile is the nearest-rank q-quantile of xs (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// cpuTime is the process's user+sys CPU so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goStats samples the runtime counters behind the go.* layer metrics.
type goStats struct {
	gcCycles   uint64
	allocBytes uint64
	gcCPU      float64
	totalCPU   float64
	idleCPU    float64
}

var goStatNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readGoStats() goStats {
	samples := make([]metrics.Sample, len(goStatNames))
	for i, n := range goStatNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	var g goStats
	if v := samples[0].Value; v.Kind() == metrics.KindUint64 {
		g.gcCycles = v.Uint64()
	}
	if v := samples[1].Value; v.Kind() == metrics.KindUint64 {
		g.allocBytes = v.Uint64()
	}
	if v := samples[2].Value; v.Kind() == metrics.KindFloat64 {
		g.gcCPU = v.Float64()
	}
	if v := samples[3].Value; v.Kind() == metrics.KindFloat64 {
		g.totalCPU = v.Float64()
	}
	if v := samples[4].Value; v.Kind() == metrics.KindFloat64 {
		g.idleCPU = v.Float64()
	}
	return g
}

// since is the delta from an earlier sample.
func (g goStats) since(prev goStats) goStats {
	return goStats{
		gcCycles:   g.gcCycles - prev.gcCycles,
		allocBytes: g.allocBytes - prev.allocBytes,
		gcCPU:      g.gcCPU - prev.gcCPU,
		totalCPU:   g.totalCPU - prev.totalCPU,
		idleCPU:    g.idleCPU - prev.idleCPU,
	}
}

// phase marks the start of a measured interval: wall clock, process
// CPU, and runtime counters.
type phase struct {
	start time.Time
	cpu   time.Duration
	gs    goStats
}

// startPhase collects the heap, then marks the start of a timed phase.
func startPhase() phase {
	runtime.GC()
	return markPhase()
}

// markPhase starts a phase without collecting first, for a window in
// the middle of a timed phase.
func markPhase() phase {
	return phase{start: time.Now(), cpu: cpuTime(), gs: readGoStats()}
}

// phaseStats is what a finished phase measured.
type phaseStats struct {
	wall time.Duration
	cpu  time.Duration
	gc   goStats // deltas
}

func (p phase) stop() phaseStats { return p.until(markPhase()) }

// until is what was measured between p and a later mark q.
func (p phase) until(q phase) phaseStats {
	return phaseStats{wall: q.start.Sub(p.start), cpu: q.cpu - p.cpu, gc: q.gs.since(p.gs)}
}

func (a *phaseStats) add(b phaseStats) {
	a.wall += b.wall
	a.cpu += b.cpu
	a.gc.gcCycles += b.gc.gcCycles
	a.gc.allocBytes += b.gc.allocBytes
	a.gc.gcCPU += b.gc.gcCPU
	a.gc.totalCPU += b.gc.totalCPU
	a.gc.idleCPU += b.gc.idleCPU
}

// e2e is one workload's untraced measurement: per-op latencies over the
// timed phases, the phases split into consecutive windows, and the
// set-up samples.
type e2e struct {
	latencies []float64 // ms, one per completed op
	// windows partition the timed phases (a paper20 pass, 300
	// stream-small emissions, 6 serve-edit blocks). Rates are the median
	// over windows, so a burst of contention from outside the process
	// moves one window, not the result.
	windows   []window
	setups    []float64 // s, one per set-up repetition
	attempted int
	failed    int
}

type window struct {
	ops int
	ps  phaseStats
}

func (m *e2e) addWindow(ops int, ps phaseStats) {
	if ops > 0 {
		m.windows = append(m.windows, window{ops, ps})
	}
}

// timed is the summed wall clock of the timed phases.
func (m e2e) timed() time.Duration {
	var d time.Duration
	for _, w := range m.windows {
		d += w.ps.wall
	}
	return d
}

func (m e2e) metrics() map[string]metric {
	var rates, cpus []float64
	for _, w := range m.windows {
		rates = append(rates, float64(w.ops)/w.ps.wall.Seconds())
		cpus = append(cpus, ms(w.ps.cpu)/float64(w.ops))
	}
	vals := map[string]float64{
		"apps_per_s":     median(rates),
		"latency_p50_ms": quantile(m.latencies, 0.5),
		"latency_p90_ms": quantile(m.latencies, 0.9),
		"cpu_ms_per_app": median(cpus),
		"peak_rss_mb":    peakRSSMB(),
		"setup_s":        median(m.setups),
	}
	out := make(map[string]metric, len(endToEnd))
	for _, e := range endToEnd {
		out[e.name] = metric{vals[e.name], e.unit}
	}
	return out
}

// printE2E prints every end-to-end metric with its unit and sample
// count, failed_frac included, ahead of the result line.
func printE2E(w io.Writer, name string, m e2e, mm map[string]metric) {
	n := len(m.latencies)
	samples := map[string]string{
		"latency_p90_ms": fmt.Sprintf("%d ops, %d beyond", n, n-int(0.9*float64(n)+0.5)),
		"apps_per_s":     fmt.Sprintf("%d ops, median of %d windows", n, len(m.windows)),
		"cpu_ms_per_app": fmt.Sprintf("%d ops, median of %d windows", n, len(m.windows)),
		"peak_rss_mb":    "1 process",
		"setup_s":        fmt.Sprintf("median of %d set-ups", len(m.setups)),
	}
	fmt.Fprintf(w, "workload %s: %d ops in %.2fs timed\n", name, n, m.timed().Seconds())
	for _, e := range endToEnd {
		s, ok := samples[e.name]
		if !ok {
			s = fmt.Sprintf("%d ops", n)
		}
		fmt.Fprintf(w, "  %-16s %12.4f %-4s (%s)\n", e.name, mm[e.name].Value, e.unit, s)
	}
	frac := 0.0
	if m.attempted > 0 {
		frac = float64(m.failed) / float64(m.attempted)
	}
	fmt.Fprintf(w, "  %-16s %12.4f %-4s (%d failed of %d attempted)\n", "failed_frac", frac, "frac", m.failed, m.attempted)
}

func emit(r result) {
	raw, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(raw))
}
