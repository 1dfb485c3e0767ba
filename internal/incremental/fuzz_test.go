package incremental

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sierra/internal/appfile"
	"sierra/internal/corpus"
)

// FuzzCompute parses fuzzed app files under FuzzRead's 64 KiB bound
// and, for every input appfile.Read accepts, requires Compute to agree
// with the reference fingerprint (fingerprint_reference_test.go) digest
// for digest. It is seeded with FuzzRead's corpus
// (internal/appfile/testdata/fuzz/FuzzRead) and a StageDemo revision
// with both masked statement kinds; `go test -fuzz FuzzCompute
// ./internal/incremental` explores further.
func FuzzCompute(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "appfile", "testdata", "fuzz", "FuzzRead", "*"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no FuzzRead seeds: %v", err)
	}
	for _, path := range seeds {
		f.Add(readSeed(f, path))
	}
	f.Add(corpus.StageDemoText(1, corpus.StageDemoEdit{ExtraStmt: "binop w + c c"}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 64<<10 {
			t.Skip("inputs are bounded at 64 KiB")
		}
		app, err := appfile.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if d := diffReference(app); d != "" {
			t.Fatal(d)
		}
	})
}

// readSeed decodes a one-value `go test fuzz v1` corpus file holding a
// []byte.
func readSeed(f *testing.F, path string) []byte {
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	header, body, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit, ok := strings.CutPrefix(body, "[]byte(")
	lit, ok2 := strings.CutSuffix(lit, ")")
	if header != "go test fuzz v1" || !ok || !ok2 {
		f.Fatalf("%s: not a one-[]byte fuzz corpus file", path)
	}
	s, err := strconv.Unquote(lit)
	if err != nil {
		f.Fatalf("%s: %v", path, err)
	}
	return []byte(s)
}
