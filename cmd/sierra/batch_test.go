package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sierra/internal/appfile"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/symexec"
)

// TestBatchKeyIgnoresRefuteJobs: the refutation worker count changes no
// report, and neither does spelling the default budgets as 0, so two
// -refute-jobs values and a run at -refute-max-paths 0
// -refute-max-depth 0 must share one cache key — every run after the
// first is served from the cache the first one filled.
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
	for i, run := range []struct {
		name                     string
		maxPaths, maxDepth, jobs int
	}{
		{"-refute-jobs 2", 5000, 6, 2},
		{"-refute-jobs 3", 5000, 6, 3},
		{"-refute-max-paths 0 -refute-max-depth 0", 0, 0, 2},
	} {
		verdicts := filepath.Join(dir, "verdicts.tsv")
		code := runBatch(batchConfig{
			glob:     filepath.Join(dir, "*.app"),
			jobs:     1,
			cacheDir: cacheDir,
			policyID: "as",
			opts: core.Options{
				Policy:  pol,
				Refuter: symexec.Config{MaxPaths: run.maxPaths, MaxDepth: run.maxDepth, Jobs: run.jobs},
			},
			verdicts: verdicts,
		})
		if code != 0 {
			t.Fatalf("%s: exit %d", run.name, code)
		}
		tsv, err := os.ReadFile(verdicts)
		if err != nil {
			t.Fatal(err)
		}
		rows := strings.Split(strings.TrimSpace(string(tsv)), "\n")
		if len(rows) != 2 {
			t.Fatalf("%s: verdict table %q", run.name, tsv)
		}
		want := "cached"
		if i == 0 {
			want = "ok"
		}
		if status := strings.Split(rows[1], "\t")[1]; status != want {
			t.Errorf("%s: status %q, want %q", run.name, status, want)
		}
	}
	entries, err := os.ReadDir(cacheDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("cache holds %d entries, want one key for every run", len(entries))
	}
}
