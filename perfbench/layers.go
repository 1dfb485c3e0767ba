package main

// endToEnd lists the end-to-end metrics every workload reports with
// tracing off, in print order. BENCHMARK.json's end_to_end list must
// match it (a test checks). failed_frac is printed beside them but is
// carried in the result line's attempted/failed counts rather than as a
// metric, because a metric whose healthy value is 0 has no relative
// bound.
var endToEnd = []struct{ name, unit string }{
	{"apps_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_app", "ms"},
	{"peak_rss_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the traced run's per-layer metrics. Every workload
// prints all of them; a layer a workload never enters reads 0 there.
// LAYERS.md maps each to the public call it times, the end-to-end metric
// it should move, and the workload where it matters.
var perLayer = []struct{ name, unit string }{
	{"parse.ms_per_app", "ms"},
	{"gen.ms_per_app", "ms"},
	{"harness.ms_per_app", "ms"},
	{"cgpa.ms_per_app", "ms"},
	{"cgpa.actions_per_app", "count"},
	{"shbg.ms_per_app", "ms"},
	{"shbg.edges_per_app", "count"},
	{"pairs.ms_per_app", "ms"},
	{"pairs.candidates_per_app", "count"},
	{"refute.ms_per_app", "ms"},
	{"refute.refuted_frac", "frac"},
	{"rank.ms_per_app", "ms"},
	{"batch.queue_wait_ms", "ms"},
	{"batch.emit_wait_ms", "ms"},
	{"batch.worker_busy_frac", "frac"},
	{"gen.stall_ms", "ms"},
	{"incremental.fingerprint_ms", "ms"},
	{"incremental.tier1_ms", "ms"},
	{"incremental.tier2_ms", "ms"},
	{"incremental.cold_ms", "ms"},
	{"incremental.tier1_frac", "frac"},
	{"incremental.tier2_frac", "frac"},
	{"incremental.cold_frac", "frac"},
	{"incremental.rerefuted_frac", "frac"},
	{"serve.submit_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.fetch_ms", "ms"},
	{"serve.polls_per_op", "count"},
	{"go.gc_cpu_frac", "frac"},
	{"go.alloc_mb_per_app", "MB"},
	{"go.gc_cycles_per_app", "count"},
	{"other.ms_per_app", "ms"},
	{"trace.overhead_frac", "frac"},
}

// spanMetric maps each ledger layer (span name) to the per-layer metric
// that carries its self time per op. The incremental apply/cold layers
// map to "": serve-edit reports them per landed tier instead.
var spanMetric = map[string]string{
	"parse":                    "parse.ms_per_app",
	"harness":                  "harness.ms_per_app",
	"cgpa":                     "cgpa.ms_per_app",
	"shbg":                     "shbg.ms_per_app",
	"pairs":                    "pairs.ms_per_app",
	"refute":                   "refute.ms_per_app",
	"rank":                     "rank.ms_per_app",
	"batch.queue":              "batch.queue_wait_ms",
	"batch.emit":               "batch.emit_wait_ms",
	"serve.submit":             "serve.submit_ms",
	"serve.wait":               "serve.wait_ms",
	"serve.fetch":              "serve.fetch_ms",
	"incremental.fingerprint":  "incremental.fingerprint_ms",
	"incremental.apply":        "",
	"incremental.apply_stages": "",
	"incremental.cold":         "",
}

// layerReport assembles the per-layer metrics: span self times from the
// ledger, effort counts, runtime deltas from the run's untraced
// segments (plain, covering plainOps ops — the program as the end-to-end
// run measures it), and the workload's own extras (which override).
// Unset metrics read 0.
func layerReport(lg ledger, ef effort, plain phaseStats, plainOps int, extra map[string]float64) map[string]metric {
	vals := map[string]float64{}
	for layer, d := range lg.self {
		if name := spanMetric[layer]; name != "" {
			vals[name] = lg.msPerOp(d)
		}
	}
	vals["other.ms_per_app"] = lg.msPerOp(lg.other)
	if n := float64(lg.ops); n > 0 {
		vals["cgpa.actions_per_app"] = float64(ef.actions) / n
		vals["shbg.edges_per_app"] = float64(ef.edges) / n
		vals["pairs.candidates_per_app"] = float64(ef.candidates) / n
	}
	if n := float64(plainOps); n > 0 {
		vals["go.alloc_mb_per_app"] = float64(plain.gc.allocBytes) / (1 << 20) / n
		vals["go.gc_cycles_per_app"] = float64(plain.gc.gcCycles) / n
	}
	if ef.checked > 0 {
		vals["refute.refuted_frac"] = float64(ef.refuted) / float64(ef.checked)
	}
	if busy := plain.gc.totalCPU - plain.gc.idleCPU; busy > 0 {
		vals["go.gc_cpu_frac"] = plain.gc.gcCPU / busy
	}
	for k, v := range extra {
		vals[k] = v
	}
	out := make(map[string]metric, len(perLayer))
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}
