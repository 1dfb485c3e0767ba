package shbg

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/appfile"
	"sierra/internal/harness"
	"sierra/internal/pointer"
)

// FuzzRules parses fuzzed app files under FuzzRead's 64 KiB bound and,
// for every input that parses, holds rules 4 and 5 to their n² reference
// (reference_test.go), in a full build and in a restricted
// re-derivation of the even-numbered actions. It is seeded with
// FuzzDiscover's corpus (internal/harness/testdata/fuzz/FuzzDiscover):
// the handmade apps and one app of every scenario family small enough
// for the bound, plus the two post-fan fixtures, where rules 4 and 5
// have pairs to order. `go test -fuzz FuzzRules ./internal/shbg`
// explores further.
func FuzzRules(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "harness", "testdata", "fuzz", "FuzzDiscover", "*"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no FuzzDiscover seeds: %v", err)
	}
	for _, path := range seeds {
		f.Add(readSeed(f, path))
	}
	for _, helpers := range []bool{false, true} {
		raw, err := appfile.Bytes(postFanApp(4, helpers))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 64<<10 {
			t.Skip("inputs are bounded at 64 KiB")
		}
		app, err := appfile.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		reg, res := actions.Analyze(app, harness.Generate(app), pointer.ActionSensitivePolicy{K: 2})
		g := Build(reg, res, Options{})
		if d := diffRules(g, buildReference(reg, res, Options{})); d != "" {
			t.Fatal(d)
		}
		dirty := map[int]bool{}
		for id := 0; id < reg.NumActions(); id += 2 {
			dirty[id] = true
		}
		if d := diffRules(rederive(g, reg, res, Options{}, dirty), rederiveReference(g, reg, res, Options{}, dirty)); d != "" {
			t.Fatalf("restricted run: %s", d)
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
