package race

import (
	"fmt"
	"strings"
	"testing"

	"sierra/internal/actions"
	"sierra/internal/corpus"
	"sierra/internal/harness"
	"sierra/internal/ir"
	"sierra/internal/pointer"
	"sierra/internal/shbg"
)

// TestKeyMatchesFmt holds Pair.Key's byte appends to the fmt rendering
// they replaced, on every candidate pair of the 20 paper apps, and
// ir.Pos.Append to Pos.String's old concatenation, positionless and
// classless positions included.
func TestKeyMatchesFmt(t *testing.T) {
	fmtKey := func(p Pair) string {
		return fmt.Sprintf("%d@%v/%d@%v:%s", p.A.Action, p.A.Pos, p.B.Action, p.B.Pos, p.A.Field)
	}
	pairs := 0
	for _, row := range corpus.PaperRows() {
		app, _ := corpus.NamedApp(row)
		reg, res := actions.Analyze(app, harness.Generate(app), pointer.ActionSensitivePolicy{K: 2})
		g := shbg.Build(reg, res, shbg.Options{})
		for _, p := range RacyPairs(reg, g, CollectAccesses(reg, res)) {
			if got, want := p.Key(), fmtKey(p); got != want {
				t.Fatalf("%s: Key() = %q, fmt renders %q", row.Name, got, want)
			}
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("the paper apps yielded no pairs")
	}

	m := &ir.Method{Name: "run"}
	for _, pos := range []ir.Pos{{}, {Method: m, Block: 3, Index: 12}} {
		want := "<nopos>"
		if pos.Method != nil {
			want = pos.Method.QualifiedName() + "@3.12"
		}
		if got := string(pos.Append([]byte("x"))); got != "x"+want {
			t.Errorf("Append(%q) = %q, want %q", "x", got, "x"+want)
		}
	}
	long := Pair{
		A: Access{Action: 12345, Pos: ir.Pos{Method: &ir.Method{Class: ir.NewClass(strings.Repeat("c", 200), ""), Name: "m"}, Index: 7}, Field: "f"},
		B: Access{Action: -1},
	}
	if got, want := long.Key(), fmtKey(long); got != want {
		t.Errorf("a key past the stack buffer: Key() = %q, fmt renders %q", got, want)
	}
}
