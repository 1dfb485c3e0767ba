package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sierra/internal/appfile"
	"sierra/internal/corpus"
	"sierra/internal/pointer"
)

// TestBatchKeyIgnoresRefuteJobs: the refutation worker count changes no
// report, so two -refute-jobs values must share one cache key — the
// second run is served from the cache the first one filled.
func TestBatchKeyIgnoresRefuteJobs(t *testing.T) {
	dir := t.TempDir()
	raw, err := appfile.Bytes(corpus.NewsApp())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "news.app"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	pol, err := parsePolicy("as")
	if err != nil {
		t.Fatal(err)
	}
	cacheDir := filepath.Join(dir, "cache")
	for i, jobs := range []int{2, 3} {
		verdicts := filepath.Join(dir, "verdicts.tsv")
		code := runBatch(batchConfig{
			glob:       filepath.Join(dir, "*.app"),
			jobs:       1,
			cacheDir:   cacheDir,
			policy:     pol,
			policyID:   "as",
			solver:     pointer.SolverDelta,
			maxPaths:   5000,
			maxDepth:   6,
			refuteJobs: jobs,
			verdicts:   verdicts,
		})
		if code != 0 {
			t.Fatalf("-refute-jobs %d: exit %d", jobs, code)
		}
		tsv, err := os.ReadFile(verdicts)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(string(tsv)), "\n")
		if len(rows) != 2 {
			t.Fatalf("-refute-jobs %d: verdict table %q", jobs, tsv)
		}
		want := []string{"ok", "cached"}[i]
		if status := strings.Split(rows[1], "\t")[1]; status != want {
			t.Errorf("-refute-jobs %d: status %q, want %q", jobs, status, want)
		}
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("cache holds %d entries, want one key for both worker counts", len(entries))
	}
}
