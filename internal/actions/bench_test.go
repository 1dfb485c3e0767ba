package actions

import (
	"bytes"
	"testing"

	"sierra/internal/appfile"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/pointer"
)

// BenchmarkKernelAttribution measures action attribution — the
// per-action reachability over the call graph that access collection
// and refuter construction share — on NPRNews, parsed from its
// serialized bytes and analyzed once. Each iteration calls the
// attribution Registry.ActionInstances memoizes per result, so it
// attributes the same registry and result again without re-running the
// analysis. Layer: pairs.
func BenchmarkKernelAttribution(b *testing.B) {
	row, ok := corpus.RowByName("NPRNews")
	if !ok {
		b.Fatal("NPRNews missing from the corpus")
	}
	gen, _ := corpus.NamedApp(row)
	raw, err := appfile.Bytes(gen)
	if err != nil {
		b.Fatal(err)
	}
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		b.Fatal(err)
	}
	reg, res := Analyze(app, harness.Generate(app), pointer.ActionSensitivePolicy{K: 2})
	b.ReportAllocs()
	b.ResetTimer()
	insts := 0
	for i := 0; i < b.N; i++ {
		insts = 0
		for _, ids := range reg.attribute(res) {
			insts += len(ids)
		}
	}
	b.ReportMetric(float64(insts), "attributed")
}
