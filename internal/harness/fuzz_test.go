package harness

import (
	"bytes"
	"testing"

	"sierra/internal/appfile"
)

// FuzzDiscover parses fuzzed app files under FuzzRead's 64 KiB bound
// and holds the callback discovery of every input that parses to the
// per-round reference (reference_test.go): the slot lists must be
// identical. The seed corpus, testdata/fuzz/FuzzDiscover, holds the
// serialized handmade apps and one app of every scenario family small
// enough for the bound; plain `go test` runs it, and
// `go test -fuzz FuzzDiscover ./internal/harness` explores further.
func FuzzDiscover(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) >= 64<<10 {
			t.Skip("inputs are bounded at 64 KiB")
		}
		app, err := appfile.Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkDiscoveryMatchesReference(t, "input", app)
	})
}
