package stream

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"sierra/internal/corpus"
)

const testConfig = `
# test mix
corpus demo
seed 99
apps 12
tot-size 200KB
scenario async-storm weight 3 patterns 4
scenario service-lifecycle weight 2
scenario message-chain depth 5
scenario reflection-storm targets 6
scenario alias-trap-deep depth 7
`

func mustParse(t *testing.T, text string) *Config {
	t.Helper()
	c, err := ParseConfig(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return c
}

func TestParseConfig(t *testing.T) {
	c := mustParse(t, testConfig)
	if c.Name != "demo" || c.Seed != 99 || c.Apps != 12 {
		t.Fatalf("header mismatch: %+v", c)
	}
	if c.TotSize != 200<<10 {
		t.Fatalf("tot-size = %d", c.TotSize)
	}
	if len(c.Mix) != 5 {
		t.Fatalf("mix entries = %d", len(c.Mix))
	}
	if c.Mix[0].Weight != 3 || c.Mix[0].Knobs["patterns"] != 4 {
		t.Fatalf("explicit weight/knob lost: %+v", c.Mix[0])
	}
	// Unweighted entries inherit the family default.
	def, _ := corpus.ScenarioByName("message-chain")
	if c.Mix[2].Weight != def.Weight {
		t.Fatalf("default weight: got %d want %d", c.Mix[2].Weight, def.Weight)
	}
}

func TestParseConfigErrors(t *testing.T) {
	for _, bad := range []string{
		"apps 5\n",                               // no scenario
		"scenario async-storm\n",                 // no budget
		"apps 5\nscenario no-such-family\n",      // unknown family
		"apps 5\nscenario async-storm bogus 3\n", // unknown knob
		"apps 5\nscenario async-storm weight\n",  // dangling pair
		"apps 5\ntot-size 12XB\nscenario async-storm\n",
	} {
		if _, err := ParseConfig(strings.NewReader(bad)); err == nil {
			t.Errorf("config %q: expected error", bad)
		}
	}
	// Overflows fail on the line that overflows: a weight sum past
	// MaxInt made the first PickScenario panic, and a wrapped tot-size
	// read as no budget at all.
	// A knob outside its family's range fails before anything is
	// generated: paper-mix multiplied the row's sizes by any scale.
	for _, tc := range []struct{ text, err string }{
		{"apps 1\nscenario paper-mix scale 9223372036854775807\n", "config line 2: scenario paper-mix: knob scale=9223372036854775807 outside [1, 10]"},
		{"apps 1\nscenario table2-x10 scale 11\n", "config line 2: scenario table2-x10: knob scale=11 outside [1, 10]"},
		{"apps 1\nscenario message-chain depth 1\n", "config line 2: scenario message-chain: knob depth=1 outside [2, 64]"},
	} {
		if _, err := ParseConfig(strings.NewReader(tc.text)); err == nil || err.Error() != tc.err {
			t.Errorf("config %q: error %v, want %q", tc.text, err, tc.err)
		}
	}
	for _, tc := range []struct{ text, line string }{
		{"apps 1\nscenario async-storm weight 9223372036854775807\nscenario async-storm weight 9223372036854775807\n", "config line 3:"},
		{"tot-size 8589934592GB\nscenario message-chain\n", "config line 1:"},
		{"seed 3\ntot-size 9223372036854775807KB\nscenario message-chain\n", "config line 2:"},
	} {
		_, err := ParseConfig(strings.NewReader(tc.text))
		if err == nil || !strings.HasPrefix(err.Error(), tc.line) {
			t.Errorf("config %q: error %v, want one starting %q", tc.text, err, tc.line)
		}
	}
}

func TestParseSize(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want int64
	}{{"0", 0}, {"123", 123}, {"123B", 123}, {"4KB", 4096}, {"2MB", 2 << 20}, {"1GB", 1 << 30}, {"3gb", 3 << 30},
		{"8589934591GB", 8589934591 << 30}, {"9223372036854775807", 9223372036854775807}} {
		got, err := ParseSize(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseSize(%q) = %d, %v; want %d", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"8589934592GB", "9223372036854775807KB", "8796093022208MB"} {
		if got, err := ParseSize(in); err == nil {
			t.Errorf("ParseSize(%q) = %d, want an overflow error", in, got)
		}
	}
}

// FuzzParseConfig holds every config ParseConfig accepts to what the
// stream relies on: a positive weight sum, a non-negative tot-size, at
// least one bound (apps or tot-size), every knob inside its family's
// range, and a PickScenario that does not panic on the first indices.
// Seeds (testdata/fuzz/FuzzParseConfig) include the stream-small
// config, both overflow repros and an out-of-range scale;
// `go test -fuzz FuzzParseConfig ./internal/stream` explores further.
func FuzzParseConfig(f *testing.F) {
	f.Add(testConfig)
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) >= 64<<10 {
			t.Skip("inputs are bounded at 64 KiB")
		}
		c, err := ParseConfig(strings.NewReader(text))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "config") {
				t.Fatalf("error %q names no config line", err)
			}
			return
		}
		if c.weightSum <= 0 || c.TotSize < 0 || c.Apps <= 0 && c.TotSize <= 0 {
			t.Fatalf("accepted config with weight sum %d, apps %d, tot-size %d", c.weightSum, c.Apps, c.TotSize)
		}
		for _, m := range c.Mix {
			s, _ := corpus.ScenarioByName(m.Name)
			for _, k := range s.Knobs {
				if v, ok := m.Knobs[k.Name]; ok && (v < k.Min || v > k.Max) {
					t.Fatalf("accepted %s %s=%d outside [%d, %d]", m.Name, k.Name, v, k.Min, k.Max)
				}
			}
		}
		for i := 0; i < 8; i++ {
			c.PickScenario(i)
		}
	})
}

// streamDigest runs the serial reference stream and hashes every app's
// bytes in order.
func streamDigest(t *testing.T, c *Config) ([32]byte, int, int64) {
	t.Helper()
	h := sha256.New()
	count, bytes := 0, int64(0)
	err := c.Stream(func(a StreamApp) error {
		if a.Index != count {
			t.Fatalf("out-of-order index %d at position %d", a.Index, count)
		}
		if a.Name != c.AppName(a.Index) {
			t.Fatalf("name mismatch: %s", a.Name)
		}
		h.Write(a.Raw)
		count++
		bytes += int64(len(a.Raw))
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum, count, bytes
}

// TestStreamDeterminism: the same config + seed yields a byte-identical
// app stream across two independent runs, and a different seed does not.
func TestStreamDeterminism(t *testing.T) {
	c1 := mustParse(t, testConfig)
	c2 := mustParse(t, testConfig)
	d1, n1, b1 := streamDigest(t, c1)
	d2, n2, b2 := streamDigest(t, c2)
	if d1 != d2 || n1 != n2 || b1 != b2 {
		t.Fatalf("stream not deterministic: (%x,%d,%d) vs (%x,%d,%d)", d1, n1, b1, d2, n2, b2)
	}
	if n1 == 0 {
		t.Fatal("empty stream")
	}
	c3 := mustParse(t, strings.Replace(testConfig, "seed 99", "seed 100", 1))
	d3, _, _ := streamDigest(t, c3)
	if d3 == d1 {
		t.Fatal("different seed produced an identical stream")
	}
}

// TestStreamBudget: tot-size admits apps while cumulative bytes are
// under budget and emits the crossing app, never under-filling.
func TestStreamBudget(t *testing.T) {
	c := mustParse(t, `
seed 7
tot-size 40KB
scenario message-chain
`)
	var total int64
	var count int
	var lastBefore int64
	err := c.Stream(func(a StreamApp) error {
		lastBefore = total
		total += int64(len(a.Raw))
		count++
		return nil
	})
	if err != nil {
		t.Fatalf("stream: %v", err)
	}
	if total < c.TotSize {
		t.Fatalf("under-filled: %d < %d", total, c.TotSize)
	}
	if lastBefore >= c.TotSize {
		t.Fatalf("emitted an app after the budget was already crossed (%d >= %d)", lastBefore, c.TotSize)
	}
	if count < 2 {
		t.Fatalf("budget stream too short: %d apps", count)
	}
	// The count cap composes with the byte budget.
	c.Apps = 1
	n := 0
	if err := c.Stream(func(StreamApp) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("apps cap ignored: %d", n)
	}
}

// TestGenerateRawRecyclesBuffer: a large-enough recycled buffer is
// reused rather than reallocated, and contents match the fresh path.
func TestGenerateRawRecyclesBuffer(t *testing.T) {
	c := mustParse(t, "apps 1\nscenario message-chain\n")
	fresh, _, err := c.GenerateRaw(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*len(fresh))
	reused, _, err := c.GenerateRaw(0, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(reused) {
		t.Fatal("recycled buffer changed serialization")
	}
	if &buf[:1][0] != &reused[:1][0] {
		t.Fatal("large-enough buffer was not reused")
	}
}

// TestPickScenarioMix: every configured family appears in a long
// enough stream, roughly in weight proportion.
func TestPickScenarioMix(t *testing.T) {
	c := mustParse(t, testConfig)
	counts := map[string]int{}
	for i := 0; i < 500; i++ {
		s, _ := c.PickScenario(i)
		counts[s.Name]++
	}
	for _, m := range c.Mix {
		if counts[m.Name] == 0 {
			t.Errorf("family %s never drawn", m.Name)
		}
	}
	if counts["async-storm"] <= counts["service-lifecycle"]/2 {
		t.Errorf("weights ignored: %+v", counts)
	}
}

// TestScenarioKnobRanges: every family's knobs parse at their defaults
// and at both ends of their ranges, and are rejected one step outside
// them; row ranges cover exactly the paper rows (or -1, sample).
func TestScenarioKnobRanges(t *testing.T) {
	for _, s := range corpus.Scenarios() {
		at := func(value func(corpus.ScenarioKnob) int) string {
			line := "apps 1\nscenario " + s.Name
			for _, k := range s.Knobs {
				line += fmt.Sprintf(" %s %d", k.Name, value(k))
			}
			return line + "\n"
		}
		for _, text := range []string{
			at(func(k corpus.ScenarioKnob) int { return k.Default }),
			at(func(k corpus.ScenarioKnob) int { return k.Min }),
			at(func(k corpus.ScenarioKnob) int { return k.Max }),
		} {
			if _, err := ParseConfig(strings.NewReader(text)); err != nil {
				t.Errorf("%q: %v", text, err)
			}
		}
		for _, k := range s.Knobs {
			if k.Name == "row" && (k.Min != -1 || k.Max != len(corpus.PaperRows())-1) {
				t.Errorf("%s: row range [%d, %d] does not match the %d paper rows", s.Name, k.Min, k.Max, len(corpus.PaperRows()))
			}
			for _, v := range []int{k.Min - 1, k.Max + 1} {
				text := fmt.Sprintf("apps 1\nscenario %s %s %d\n", s.Name, k.Name, v)
				if _, err := ParseConfig(strings.NewReader(text)); err == nil {
					t.Errorf("%q: accepted a value outside [%d, %d]", text, k.Min, k.Max)
				}
			}
		}
	}
}
