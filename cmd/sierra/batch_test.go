package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sierra/internal/appfile"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/stream"
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

// TestStreamVerdictsMatchBatch: `sierra -stream CFG -verdicts F` must
// write the same verdict table, byte for byte, as `sierra -batch` over
// that config materialized to disk — streaming changes where the bytes
// live, not what the analysis says. The batch run's `-stats` snapshot
// must carry the ledger of each of its six jobs.
func TestStreamVerdictsMatchBatch(t *testing.T) {
	dir := t.TempDir()
	cfgPath := filepath.Join(dir, "smoke.cfg")
	cfgText := "corpus smoke-stream\nseed 7\napps 6\n" +
		"scenario async-storm\nscenario message-chain\nscenario service-lifecycle\n"
	if err := os.WriteFile(cfgPath, []byte(cfgText), 0o644); err != nil {
		t.Fatal(err)
	}
	scfg, err := stream.LoadConfig(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	corpusDir := filepath.Join(dir, "corpus")
	if err := os.Mkdir(corpusDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := scfg.Stream(func(a stream.StreamApp) error {
		return os.WriteFile(filepath.Join(corpusDir, a.Name+".app"), a.Raw, 0o644)
	}); err != nil {
		t.Fatal(err)
	}

	tables := map[string][]byte{}
	for _, run := range []struct {
		name string
		cfg  batchConfig
	}{
		{"stream", batchConfig{streamCfg: cfgPath, genJobs: 2}},
		{"batch", batchConfig{glob: filepath.Join(corpusDir, "*.app")}},
	} {
		cfg := run.cfg
		cfg.jobs = 2
		cfg.opts = core.Options{Refuter: symexec.Config{Jobs: 2}}
		cfg.verdicts = filepath.Join(dir, run.name+".tsv")
		cfg.stats = filepath.Join(dir, run.name+".json")
		if code := runBatch(cfg); code != 0 {
			t.Fatalf("-%s: exit %d", run.name, code)
		}
		tsv, err := os.ReadFile(cfg.verdicts)
		if err != nil {
			t.Fatal(err)
		}
		tables[run.name] = tsv
	}
	if rows := strings.Count(string(tables["batch"]), "\n"); rows != 7 {
		t.Fatalf("-batch verdict table has %d lines, want a header and 6 apps:\n%s", rows, tables["batch"])
	}
	if !bytes.Equal(tables["stream"], tables["batch"]) {
		t.Errorf("verdict tables differ:\n-- stream --\n%s-- batch --\n%s", tables["stream"], tables["batch"])
	}

	// The -stats snapshot of the batch run carries every job's ledger:
	// one core.layer_ms sample per app for each layer that ran, and
	// neither a span tree nor series.
	raw, err := os.ReadFile(filepath.Join(dir, "batch.json"))
	if err != nil {
		t.Fatal(err)
	}
	var stats map[string]json.RawMessage
	if err := json.Unmarshal(raw, &stats); err != nil {
		t.Fatalf("-stats: %v", err)
	}
	for _, key := range []string{"trace", "series"} {
		if _, ok := stats[key]; ok {
			t.Errorf("-stats has a %q key", key)
		}
	}
	var hists map[string]struct{ Count int64 }
	if err := json.Unmarshal(stats["histograms"], &hists); err != nil {
		t.Fatalf("-stats histograms: %v", err)
	}
	for l := range core.NumLayers {
		want := int64(6)
		if l == core.Compare {
			want = 0
		}
		if got := hists["core.layer_ms."+l.String()].Count; got != want {
			t.Errorf("-stats core.layer_ms.%s count = %d, want %d", l, got, want)
		}
	}
}
