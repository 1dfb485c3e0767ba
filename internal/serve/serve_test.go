package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sierra/internal/corpus"
	"sierra/internal/obs"
	"sierra/internal/serve"
)

// startServer boots a daemon on a random port and tears it down with
// the test. The returned trace observes the service counters.
func startServer(t *testing.T, cfg serve.Config) (*serve.Server, string, *obs.Trace) {
	t.Helper()
	tr := obs.New("serve-test")
	cfg.Obs = tr
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatalf("serve.Start: %v", err)
	}
	t.Cleanup(func() {
		s.Drain()
		s.Close()
	})
	return s, "http://" + s.Addr(), tr
}

func submit(t *testing.T, base string, body []byte) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(base+"/v1/apps", "text/plain", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/apps: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding submit response: %v", err)
	}
	return resp.StatusCode, m
}

// waitDone polls the job until it completes and returns its digest.
func waitDone(t *testing.T, base, jobID string) string {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + jobID)
		if err != nil {
			t.Fatalf("GET job %s: %v", jobID, err)
		}
		var m map[string]any
		err = json.NewDecoder(resp.Body).Decode(&m)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decoding job %s: %v", jobID, err)
		}
		switch m["status"] {
		case "done":
			return m["digest"].(string)
		case "failed":
			t.Fatalf("job %s failed: %v", jobID, m["error"])
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not complete", jobID)
	return ""
}

func fetchReport(t *testing.T, base, digest string) []byte {
	t.Helper()
	resp, err := http.Get(base + "/v1/reports/" + digest)
	if err != nil {
		t.Fatalf("GET report %s: %v", digest, err)
	}
	defer resp.Body.Close()
	doc, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET report %s: status %d: %s", digest, resp.StatusCode, doc)
	}
	return doc
}

func TestSubmitPollFetch(t *testing.T) {
	_, base, _ := startServer(t, serve.Config{})
	raw := corpus.StageDemoText(1, corpus.StageDemoEdit{})

	code, m := submit(t, base, raw)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d body %v", code, m)
	}
	if m["job_id"] == "" || m["digest"] == "" {
		t.Fatalf("submit response missing ids: %v", m)
	}
	digest := waitDone(t, base, m["job_id"].(string))

	doc := fetchReport(t, base, digest)
	var report map[string]any
	if err := json.Unmarshal(doc, &report); err != nil {
		t.Fatalf("report is not JSON: %v\n%s", err, doc)
	}
	if report["schema"] != serve.ReportSchema {
		t.Errorf("schema = %v, want %s", report["schema"], serve.ReportSchema)
	}
	if report["app"] != "StageDemo1" || report["digest"] != digest {
		t.Errorf("report identity wrong: app=%v digest=%v", report["app"], report["digest"])
	}
	if !bytes.Contains(doc, []byte(`".f2_0"`)) || bytes.Contains(doc, []byte(`".f1_0"`)) {
		t.Errorf("baseline report must contain the f2_0 race and refute f1_0:\n%s", doc)
	}

	// Resubmitting the identical bytes is answered from the store.
	code, m = submit(t, base, raw)
	if code != http.StatusOK || m["status"] != "done" {
		t.Errorf("duplicate submit: status %d body %v, want 200/done", code, m)
	}
	if m["report"] != "/v1/reports/"+digest {
		t.Errorf("duplicate submit report path = %v", m["report"])
	}
}

func TestMalformedAndUnknown(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})

	code, m := submit(t, base, []byte("this is not an app document"))
	if code != http.StatusBadRequest {
		t.Errorf("malformed submit: status %d body %v, want 400", code, m)
	}
	if m["error"] == "" {
		t.Errorf("malformed submit: no error message: %v", m)
	}
	// An empty body parses but has no app name — equally malformed.
	if code, m := submit(t, base, nil); code != http.StatusBadRequest {
		t.Errorf("empty submit: status %d body %v, want 400", code, m)
	}
	// An interface cycle outside the manifest passes every per-line
	// check; analyzing it would overflow the worker's stack.
	cyclic := []byte(`app cyc
package com.cyc
activity Main
class Main extends android.app.Activity
class I implements J
class J implements I
class Impl implements I
method Main onCreate
block Main onCreate 0
new o Impl
call v _ o Impl run
ret _
`)
	code, m = submit(t, base, cyclic)
	if e, _ := m["error"].(string); code != http.StatusBadRequest || !strings.Contains(e, "cyclic type hierarchy") {
		t.Errorf("cyclic submit: status %d body %v, want 400 naming the cycle", code, m)
	}
	// A duplicate class once panicked the parser inside the handler, so
	// net/http dropped the connection instead of answering 400.
	dup := []byte("app dup\nclass A\nclass A\n")
	code, m = submit(t, base, dup)
	if e, _ := m["error"].(string); code != http.StatusBadRequest || !strings.Contains(e, "duplicate class") {
		t.Errorf("duplicate-class submit: status %d body %v, want 400 naming the duplicate", code, m)
	}
	// A class named like the activity's harness class used to be
	// accepted; its job then panicked when the harness was added.
	harnessName := []byte("app hn\nactivity A\nclass A extends android.app.Activity\nclass sierra.harness.A\n")
	code, m = submit(t, base, harnessName)
	if e, _ := m["error"].(string); code != http.StatusBadRequest || !strings.Contains(e, "reserved prefix") {
		t.Errorf("harness-class submit: status %d body %v, want 400 naming the reserved prefix", code, m)
	}
	if got := tr.Counter("serve.malformed"); got != 5 {
		t.Errorf("serve.malformed = %d, want 5", got)
	}
	if got := tr.Counter("serve.submissions"); got != 0 {
		t.Errorf("serve.submissions = %d, want 0 (malformed never counts)", got)
	}

	resp, err := http.Get(base + "/v1/apps")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/apps: status %d, want 405", resp.StatusCode)
	}

	for _, path := range []string{"/v1/jobs/j999", "/v1/reports/deadbeef"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestConcurrentSubmitDedup: one digest submitted from many clients at
// once must never analyze twice — every submission is answered with the
// shared in-flight job or the stored report, and every client ends up
// reading identical bytes.
func TestConcurrentSubmitDedup(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})
	raw := corpus.StageDemoText(1, corpus.StageDemoEdit{})

	const clients = 8
	var wg sync.WaitGroup
	jobIDs := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(base+"/v1/apps", "text/plain", bytes.NewReader(raw))
			if err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			var m map[string]any
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				t.Errorf("client %d: %v", i, err)
				return
			}
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
				t.Errorf("client %d: status %d body %v", i, resp.StatusCode, m)
				return
			}
			if id, _ := m["job_id"].(string); id != "" {
				jobIDs[i] = id
			}
		}(i)
	}
	wg.Wait()

	ids := map[string]bool{}
	var digest string
	for _, id := range jobIDs {
		if id != "" {
			ids[id] = true
			digest = waitDone(t, base, id)
		}
	}
	if len(ids) != 1 {
		t.Fatalf("concurrent submissions created %d jobs (%v), want exactly 1", len(ids), ids)
	}
	if got := tr.Counter("serve.jobs_done"); got != 1 {
		t.Errorf("serve.jobs_done = %d, want 1 (dedup must prevent re-analysis)", got)
	}
	want := fetchReport(t, base, digest)
	for i := 0; i < 3; i++ {
		if got := fetchReport(t, base, digest); !bytes.Equal(got, want) {
			t.Fatalf("report fetch %d differs", i)
		}
	}
}

// TestIncrementalResubmission drives the warm-baseline path end to end:
// a revision differing only in an If operand must be absorbed with every
// stage reused (fewer pairs re-refuted than exist) and flip the guarded
// verdict, an inserted dataflow sink must be absorbed by patching the
// stages, and a declaration change must fall back to a full run. Each
// revision moves exactly one of the three landing counters.
func TestIncrementalResubmission(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})
	landings := func(step string, applies, stageApplies, fallbacks int64) {
		t.Helper()
		for _, c := range []struct {
			name string
			want int64
		}{
			{"incremental.applies", applies},
			{"incremental.stage_applies", stageApplies},
			{"incremental.fallbacks", fallbacks},
		} {
			if got := tr.Counter(c.name); got != c.want {
				t.Errorf("after %s: %s = %d, want %d", step, c.name, got, c.want)
			}
		}
	}
	resubmit := func(step string, ed corpus.StageDemoEdit) string {
		t.Helper()
		code, m := submit(t, base, corpus.StageDemoText(1, ed))
		if code != http.StatusAccepted {
			t.Fatalf("%s submit: status %d", step, code)
		}
		return waitDone(t, base, m["job_id"].(string))
	}

	resubmit("baseline", corpus.StageDemoEdit{})
	landings("baseline", 0, 0, 0)

	digest := resubmit("if-operand edit", corpus.StageDemoEdit{IfLine: "if c == int 0"})
	landings("if-operand edit", 1, 0, 0)
	rerefuted := tr.Counter("incremental.pairs_rerefuted")
	spliced := tr.Counter("incremental.pairs_spliced")
	if rerefuted < 1 {
		t.Errorf("incremental.pairs_rerefuted = %d, want >= 1", rerefuted)
	}
	if spliced < 1 {
		t.Errorf("incremental.pairs_spliced = %d, want >= 1 (untouched pair must be spliced)", spliced)
	}
	doc := fetchReport(t, base, digest)
	if !bytes.Contains(doc, []byte(`".f1_0"`)) {
		t.Errorf("edited revision must surface the now-feasible f1_0 race:\n%s", doc)
	}

	// A skeleton-visible dataflow sink lands by patching the stages.
	resubmit("sink insert", corpus.StageDemoEdit{IfLine: "if c == int 0", ExtraStmt: "load w a f1_0"})
	landings("sink insert", 1, 1, 0)

	// A shape edit declines and falls back to the full path.
	resubmit("shape edit", corpus.StageDemoEdit{IfLine: "if c == int 0", ExtraStmt: "load w a f1_0", ExtraMethod: true})
	landings("shape edit", 1, 1, 1)
}

// TestWarmApplyHonoursContext: a job whose context is already done
// fails on both warm paths instead of landing a report: the apply
// declines (one incremental.fallbacks each) and the cold run it falls
// back to is interrupted. The declines leave the baseline usable, so
// the same revisions then land warm under a live context.
func TestWarmApplyHonoursContext(t *testing.T) {
	tr := obs.New("serve-test")
	s, err := serve.New(serve.Config{Obs: tr})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	if _, err := s.AnalyzeRevision(context.Background(), corpus.StageDemoText(4, corpus.StageDemoEdit{})); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	revisions := []struct {
		name, landing string
		raw           []byte
	}{
		{"no-patch", "incremental.applies", corpus.StageDemoText(4, corpus.StageDemoEdit{IfLine: "if c == int 0"})},
		{"patch", "incremental.stage_applies", corpus.StageDemoText(4, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})},
	}
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	for i, r := range revisions {
		if doc, err := s.AnalyzeRevision(dead, r.raw); err == nil {
			t.Errorf("%s under a cancelled context: a %d-byte report and no error", r.name, len(doc))
		}
		if got := tr.Counter("incremental.fallbacks"); got != int64(i+1) {
			t.Errorf("after %s under a cancelled context: incremental.fallbacks = %d, want %d", r.name, got, i+1)
		}
	}
	for _, r := range revisions {
		before := tr.Counter(r.landing)
		if _, err := s.AnalyzeRevision(context.Background(), r.raw); err != nil {
			t.Errorf("%s under a live context: %v", r.name, err)
		}
		if got := tr.Counter(r.landing); got != before+1 {
			t.Errorf("%s under a live context: %s = %d, want %d (a warm landing)", r.name, r.landing, got, before+1)
		}
	}
	if got := tr.Counter("incremental.fallbacks"); got != 2 {
		t.Errorf("incremental.fallbacks = %d after the live landings, want 2", got)
	}
}

// TestStorePersistence: with a StoreDir, reports outlive the daemon — a
// fresh server over the same directory answers a duplicate submission
// from the store without re-analyzing.
func TestStorePersistence(t *testing.T) {
	dir := t.TempDir()
	raw := corpus.StageDemoText(1, corpus.StageDemoEdit{})

	s1, base1, _ := startServer(t, serve.Config{StoreDir: dir})
	_, m := submit(t, base1, raw)
	digest := waitDone(t, base1, m["job_id"].(string))
	want := fetchReport(t, base1, digest)
	s1.Drain()
	s1.Close()

	_, base2, tr2 := startServer(t, serve.Config{StoreDir: dir})
	code, m := submit(t, base2, raw)
	if code != http.StatusOK || m["status"] != "done" {
		t.Fatalf("restarted server: status %d body %v, want 200/done", code, m)
	}
	if got := tr2.Counter("serve.report_hits"); got != 1 {
		t.Errorf("serve.report_hits = %d, want 1", got)
	}
	if got := fetchReport(t, base2, digest); !bytes.Equal(got, want) {
		t.Error("report changed across restart")
	}
}

// TestDrain: a draining server rejects new submissions with 503 but
// finishes and serves what it already accepted.
func TestDrain(t *testing.T) {
	s, base, tr := startServer(t, serve.Config{})
	raw := corpus.StageDemoText(1, corpus.StageDemoEdit{})
	_, m := submit(t, base, raw)
	jobID := m["job_id"].(string)

	s.Drain() // blocks until the in-flight analysis completes

	digest := waitDone(t, base, jobID)
	fetchReport(t, base, digest)

	code, m2 := submit(t, base, corpus.StageDemoText(1, corpus.StageDemoEdit{IfLine: "if c == int 0"}))
	if code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d body %v, want 503", code, m2)
	}
	if got := tr.Counter("serve.drains"); got != 1 {
		t.Errorf("serve.drains = %d, want 1", got)
	}
}

// TestQueueFullAndOversized exercises the remaining rejection paths.
func TestQueueFullAndOversized(t *testing.T) {
	_, base, _ := startServer(t, serve.Config{})

	// An over-cap body is refused before parsing (16 MiB + 1 of noise).
	big := bytes.Repeat([]byte("x"), 16<<20+1)
	resp, err := http.Post(base+"/v1/apps", "text/plain", bytes.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized submit: status %d, want 413", resp.StatusCode)
	}
}

// TestTelemetryMounted: the export debug surface shares the service
// port.
func TestTelemetryMounted(t *testing.T) {
	_, base, _ := startServer(t, serve.Config{})
	for _, path := range []string{"/healthz", "/metrics", "/progress"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		if path == "/progress" && !strings.Contains(string(body), `"draining"`) {
			t.Errorf("/progress missing service fields: %s", body)
		}
	}
}

// TestJobWaitObserved: queue latency lands in the wait histogram.
func TestJobWaitObserved(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})
	_, m := submit(t, base, corpus.StageDemoText(1, corpus.StageDemoEdit{}))
	waitDone(t, base, m["job_id"].(string))
	if n := tr.Hist("serve.job_wait_ms").Count(); n != 1 {
		t.Errorf("serve.job_wait_ms count = %d, want 1", n)
	}
}

// TestStageReuseResubmission drives the stage-patch path end to end
// through the daemon: a skeleton-visible one-method edit (an inserted
// dataflow sink) must be absorbed by the warm baseline — pointer delta
// re-seed, SHBG row patch, pair diff — and the report it answers with
// must be byte-identical to what a cold daemon computes for the same
// bytes.
func TestStageReuseResubmission(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})

	code, m := submit(t, base, corpus.StageDemoText(4, corpus.StageDemoEdit{}))
	if code != http.StatusAccepted {
		t.Fatalf("baseline submit: status %d", code)
	}
	waitDone(t, base, m["job_id"].(string))

	edited := corpus.StageDemoText(4, corpus.StageDemoEdit{ExtraStmt: "load w a f1_0"})
	code, m = submit(t, base, edited)
	if code != http.StatusAccepted {
		t.Fatalf("edited submit: status %d", code)
	}
	digest := waitDone(t, base, m["job_id"].(string))

	if got := tr.Counter("incremental.stage_applies"); got != 1 {
		t.Errorf("incremental.stage_applies = %d, want 1", got)
	}
	if got := tr.Counter("incremental.fallbacks"); got != 0 {
		t.Errorf("incremental.fallbacks = %d, want 0 (the edit landed warm)", got)
	}
	if spliced := tr.Counter("incremental.pairs_spliced"); spliced < 1 {
		t.Errorf("incremental.pairs_spliced = %d, want >= 1", spliced)
	}
	warm := fetchReport(t, base, digest)

	// The cold truth: a fresh daemon with no baseline for this lineage.
	_, base2, tr2 := startServer(t, serve.Config{})
	_, m = submit(t, base2, edited)
	cold := fetchReport(t, base2, waitDone(t, base2, m["job_id"].(string)))
	if got := tr2.Counter("incremental.stage_applies"); got != 0 {
		t.Fatalf("control daemon took the stage path (%d applies) — not a cold run", got)
	}
	if !bytes.Equal(warm, cold) {
		t.Errorf("stage-reused report differs from cold:\n-- warm --\n%s\n-- cold --\n%s", warm, cold)
	}
}

// TestLineageWaves: a gathered batch holding several revisions of one
// app must run them serialized in submission order (they absorb into
// one warm baseline) while an unrelated lineage rides the first wave
// concurrently. A slow occupier (a large StageDemo — its own lineage,
// the group count is part of the app name) keeps the dispatcher busy
// in its first batch so the three follow-up submissions coalesce into
// one gathered batch; timing-dependent, so the burst retries on a
// fresh server if the coalesce window was missed.
func TestLineageWaves(t *testing.T) {
	const attempts = 3
	for attempt := 0; attempt < attempts; attempt++ {
		_, base, tr := startServer(t, serve.Config{Workers: 2})

		// ~100ms of analysis: a wide window next to three local POSTs.
		_, m0 := submit(t, base, corpus.StageDemoText(60, corpus.StageDemoEdit{}))

		// While the occupier analyzes, queue two revisions of StageDemo1
		// and one revision of StageDemo2.
		_, mA1 := submit(t, base, corpus.StageDemoText(1, corpus.StageDemoEdit{}))
		_, mA2 := submit(t, base, corpus.StageDemoText(1, corpus.StageDemoEdit{IfLine: "if c == int 0"}))
		_, mB1 := submit(t, base, corpus.StageDemoText(2, corpus.StageDemoEdit{}))

		waitDone(t, base, m0["job_id"].(string))
		waitDone(t, base, mA1["job_id"].(string))
		digestA2 := waitDone(t, base, mA2["job_id"].(string))
		waitDone(t, base, mB1["job_id"].(string))

		if tr.Counter("serve.lineage_waves") < 1 {
			if attempt < attempts-1 {
				continue // window missed; retry on a fresh server
			}
			t.Fatalf("serve.lineage_waves = 0 after %d attempts (second StageDemo1 revision never ran in a later wave)", attempts)
		}
		// Order proof: the second revision saw the first as its baseline
		// (incremental apply), and its report reflects the edited branch.
		if got := tr.Counter("incremental.applies"); got < 1 {
			t.Errorf("incremental.applies = %d, want >= 1 (serialized lineage must absorb in order)", got)
		}
		doc := fetchReport(t, base, digestA2)
		if !bytes.Contains(doc, []byte(`".f1_0"`)) {
			t.Errorf("second revision's report must surface the now-feasible f1_0 race:\n%s", doc)
		}
		return
	}
}

// TestDaemonTraceStaysFlat drives 40 StageDemo revisions through the
// job body and holds the daemon's trace flat: after 10 revisions and
// after 40 it names the same metrics, because a trace keeps one number
// per counter or gauge and one bucket array per histogram. The folded
// incremental.* counters match the landings, which cycle through
// reuse, patch and cold, once per revision; every landing adds one
// core.layer_ms sample to the layers it ran.
func TestDaemonTraceStaysFlat(t *testing.T) {
	tr := obs.New("serve-test")
	s, err := serve.New(serve.Config{Obs: tr})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	cycle := []struct {
		edit    corpus.StageDemoEdit
		landing string
	}{
		{corpus.StageDemoEdit{IfLine: "if c == int 0"}, "incremental.applies"},
		{corpus.StageDemoEdit{}, "incremental.applies"},
		{corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}, "incremental.stage_applies"},
		{corpus.StageDemoEdit{}, "incremental.stage_applies"},
		{corpus.StageDemoEdit{ExtraMethod: true}, "incremental.fallbacks"},
		{corpus.StageDemoEdit{}, "incremental.fallbacks"},
	}
	if _, err := s.AnalyzeRevision(context.Background(), corpus.StageDemoText(2, corpus.StageDemoEdit{})); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	want := map[string]int64{}
	names := func() []string {
		snap := tr.Snapshot()
		var ns []string
		for n := range snap.Counters {
			ns = append(ns, "counter "+n)
		}
		for n := range snap.Gauges {
			ns = append(ns, "gauge "+n)
		}
		for n := range snap.Histograms {
			ns = append(ns, "histogram "+n)
		}
		sort.Strings(ns)
		return ns
	}
	var names10 []string
	for i := 0; i < 40; i++ {
		r := cycle[i%len(cycle)]
		if _, err := s.AnalyzeRevision(context.Background(), corpus.StageDemoText(2, r.edit)); err != nil {
			t.Fatalf("revision %d: %v", i+1, err)
		}
		want[r.landing]++
		for _, c := range []string{"incremental.applies", "incremental.stage_applies", "incremental.fallbacks"} {
			if got := tr.Counter(c); got != want[c] {
				t.Fatalf("after revision %d (%+v): %s = %d, want %d", i+1, r.edit, c, got, want[c])
			}
		}
		if i+1 == 10 {
			names10 = names()
		}
	}
	if got := names(); !slices.Equal(got, names10) {
		t.Errorf("daemon trace grew from 10 to 40 revisions: %d → %d metric names", len(names10), len(got))
	}
	// The baseline and the fallbacks run cold, every landing refutes and
	// ranks, and only cold runs and patching landings re-solve.
	cold, patched := 1+want["incremental.fallbacks"], want["incremental.stage_applies"]
	for layer, n := range map[string]int64{
		"harness": cold, "cgpa": cold + patched, "refute": 41, "rank": 41,
	} {
		if got := tr.Hist("core.layer_ms." + layer).Count(); got != n {
			t.Errorf("core.layer_ms.%s holds %d samples, want %d", layer, got, n)
		}
	}
	if tr.Counter("core.reports") == 0 || tr.Counter("refute.pairs") == 0 {
		t.Error("the jobs' pipeline counters were not folded into the daemon trace")
	}
}

// TestDaemonBatchCountsEveryJob drives 20 distinct revisions through
// the HTTP surface and the dispatcher, so through batch.Run (which
// AnalyzeRevision bypasses): batch.jobs and the batch.job_duration_ms
// histogram count every job on the daemon's trace by the time the job
// reports done, with no wait beyond that.
func TestDaemonBatchCountsEveryJob(t *testing.T) {
	_, base, tr := startServer(t, serve.Config{})
	for i := 0; i < 20; i++ {
		code, m := submit(t, base, corpus.StageDemoText(1, corpus.StageDemoEdit{IfLine: fmt.Sprintf("if c == int %d", i)}))
		if code != http.StatusAccepted {
			t.Fatalf("revision %d: status %d", i+1, code)
		}
		waitDone(t, base, m["job_id"].(string))
		n := int64(i + 1)
		if got := tr.Counter("batch.jobs"); got != n {
			t.Fatalf("batch.jobs = %d once job %d reports done", got, n)
		}
		if got := tr.Hist("batch.job_duration_ms").Count(); got != n {
			t.Fatalf("batch.job_duration_ms holds %d observations once job %d reports done", got, n)
		}
	}
}
