// Config-driven corpus generation: a line-oriented scenario config
// names a weighted mix of scenario families plus a count and/or byte
// budget, and every app in the resulting stream is a pure function of
// (config, index). That purity is the whole determinism story — any
// number of generation workers, in any order, reproduce the same
// byte-identical stream, and the budget cutoff is applied on in-order
// cumulative bytes so parallel runs agree with serial ones.
//
// Format (one directive per line; '#' starts a comment):
//
//	corpus nightly            # corpus name (default app-name prefix)
//	seed 1234                 # corpus seed (default 1)
//	apps 10000                # app count cap (optional)
//	tot-size 2GB              # serialized-byte budget (optional)
//	name-prefix night         # app name prefix override (optional)
//	scenario async-storm weight 3 patterns 8 fields 4
//	scenario service-lifecycle weight 2
//	scenario alias-trap-deep depth 9
//
// At least one of `apps` / `tot-size` and at least one `scenario` line
// are required. Unknown knob names on a scenario line are an error so
// typos do not silently fall back to defaults, and so is a knob value
// outside the family's declared range (corpus.ScenarioKnob).
package stream

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/corpus"
)

// ConfigScenario is one weighted family entry in a corpus config.
type ConfigScenario struct {
	Name   string
	Weight int
	Knobs  map[string]int
}

// Config is a parsed corpus config: a weighted scenario mix under a
// count and/or byte budget.
type Config struct {
	Name    string
	Seed    int64
	Apps    int   // app count cap; 0 = unbounded (budget applies)
	TotSize int64 // serialized-byte budget; 0 = unbounded (count applies)
	Prefix  string
	Mix     []ConfigScenario

	weightSum int
}

// ParseConfig reads the line-oriented config format.
func ParseConfig(r io.Reader) (*Config, error) {
	c := &Config{Name: "corpus", Seed: 1}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 64*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		bad := func(format string, args ...any) error {
			return fmt.Errorf("config line %d: %s", lineNo, fmt.Sprintf(format, args...))
		}
		switch f[0] {
		case "corpus":
			if len(f) != 2 {
				return nil, bad("corpus needs one name")
			}
			c.Name = f[1]
		case "seed":
			if len(f) != 2 {
				return nil, bad("seed needs one integer")
			}
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				return nil, bad("bad seed %q", f[1])
			}
			c.Seed = v
		case "apps":
			if len(f) != 2 {
				return nil, bad("apps needs one integer")
			}
			v, err := strconv.Atoi(f[1])
			if err != nil || v < 0 {
				return nil, bad("bad app count %q", f[1])
			}
			c.Apps = v
		case "tot-size":
			if len(f) != 2 {
				return nil, bad("tot-size needs one size (e.g. 64MB)")
			}
			v, err := ParseSize(f[1])
			if err != nil {
				return nil, bad("%v", err)
			}
			c.TotSize = v
		case "name-prefix":
			if len(f) != 2 {
				return nil, bad("name-prefix needs one value")
			}
			c.Prefix = f[1]
		case "scenario":
			if len(f) < 2 {
				return nil, bad("scenario needs a family name")
			}
			s, ok := corpus.ScenarioByName(f[1])
			if !ok {
				return nil, bad("unknown scenario family %q (see corpusgen -list-scenarios)", f[1])
			}
			entry := ConfigScenario{Name: s.Name, Weight: s.Weight, Knobs: map[string]int{}}
			rest := f[2:]
			if len(rest)%2 != 0 {
				return nil, bad("scenario %s: knobs must be name/value pairs", s.Name)
			}
			for i := 0; i < len(rest); i += 2 {
				key, val := rest[i], rest[i+1]
				v, err := strconv.Atoi(val)
				if err != nil {
					return nil, bad("scenario %s: bad value %q for %s", s.Name, val, key)
				}
				if key == "weight" {
					if v <= 0 {
						return nil, bad("scenario %s: weight must be positive", s.Name)
					}
					entry.Weight = v
					continue
				}
				i := slices.IndexFunc(s.Knobs, func(k corpus.ScenarioKnob) bool { return k.Name == key })
				if i < 0 {
					return nil, bad("scenario %s: unknown knob %q", s.Name, key)
				}
				// Out-of-range sizes are rejected before any app is
				// generated: the generator would otherwise build an app
				// of whatever size they ask for.
				if k := s.Knobs[i]; v < k.Min || v > k.Max {
					return nil, bad("scenario %s: knob %s=%d outside [%d, %d]", s.Name, key, v, k.Min, k.Max)
				}
				entry.Knobs[key] = v
			}
			// PickScenario draws below the weight sum, which must stay
			// a positive int.
			if c.weightSum > math.MaxInt-entry.Weight {
				return nil, bad("scenario %s: weights sum past %d", s.Name, math.MaxInt)
			}
			c.weightSum += entry.Weight
			c.Mix = append(c.Mix, entry)
		default:
			return nil, bad("unknown directive %q", f[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(c.Mix) == 0 {
		return nil, fmt.Errorf("config: no scenario lines")
	}
	if c.Apps == 0 && c.TotSize == 0 {
		return nil, fmt.Errorf("config: need apps and/or tot-size")
	}
	if c.Prefix == "" {
		c.Prefix = c.Name
	}
	return c, nil
}

// LoadConfig parses a config file from disk.
func LoadConfig(path string) (*Config, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ParseConfig(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// ParseSize parses a byte size with an optional KB/MB/GB suffix (powers
// of 1024; a bare number is bytes).
func ParseSize(s string) (int64, error) {
	u := strings.ToUpper(s)
	mult := int64(1)
	switch {
	case strings.HasSuffix(u, "KB"):
		mult, u = 1<<10, u[:len(u)-2]
	case strings.HasSuffix(u, "MB"):
		mult, u = 1<<20, u[:len(u)-2]
	case strings.HasSuffix(u, "GB"):
		mult, u = 1<<30, u[:len(u)-2]
	case strings.HasSuffix(u, "B"):
		u = u[:len(u)-1]
	}
	v, err := strconv.ParseInt(u, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad size %q", s)
	}
	// A wrapped product would be a non-positive budget, which Admit
	// reads as no budget at all.
	if v > math.MaxInt64/mult {
		return 0, fmt.Errorf("size %q overflows int64 bytes", s)
	}
	return v * mult, nil
}

// AppSeed derives the per-index app seed: an FNV-1a-style mix of the
// corpus seed and the index, so neighboring indices decorrelate.
func (c *Config) AppSeed(i int) int64 {
	h := int64(1469598103934665603)
	mix := func(v int64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= 1099511628211
		}
	}
	mix(c.Seed)
	mix(int64(i))
	if h < 0 {
		h = -h
	}
	return h
}

// AppName names the i-th app of the stream. Zero-padded so a corpus
// materialized to disk globs back in stream order.
func (c *Config) AppName(i int) string {
	return fmt.Sprintf("%s-%06d", c.Prefix, i)
}

// PickScenario deterministically selects the i-th app's family by
// weighted draw from the per-index seed.
func (c *Config) PickScenario(i int) (corpus.Scenario, map[string]int) {
	rng := rand.New(rand.NewSource(c.AppSeed(i) ^ 0x5ca1ab1e))
	n := rng.Intn(c.weightSum)
	for _, m := range c.Mix {
		if n < m.Weight {
			s, _ := corpus.ScenarioByName(m.Name)
			return s, m.Knobs
		}
		n -= m.Weight
	}
	s, _ := corpus.ScenarioByName(c.Mix[len(c.Mix)-1].Name)
	return s, c.Mix[len(c.Mix)-1].Knobs
}

// GenerateApp builds the i-th app of the stream — a pure function of
// (config, i), independent of process, worker, or generation order.
func (c *Config) GenerateApp(i int) (*apk.App, *corpus.GroundTruth) {
	s, kv := c.PickScenario(i)
	return s.Generate(c.AppName(i), c.AppSeed(i), kv)
}

// GenerateRaw is GenerateApp serialized to the textual .app format —
// the unit the streaming pipeline moves around. buf, when non-nil, is
// recycled as the destination buffer.
func (c *Config) GenerateRaw(i int, buf []byte) ([]byte, *corpus.GroundTruth, error) {
	app, gt := c.GenerateApp(i)
	raw, err := appfile.AppendBytes(buf[:0], app)
	if err != nil {
		return nil, nil, err
	}
	return raw, gt, nil
}

// StreamApp is one in-order element of a budgeted corpus stream.
type StreamApp struct {
	Index int
	Name  string
	Raw   []byte
	GT    *corpus.GroundTruth
}

// Stream yields the corpus in index order, applying the count cap and
// the cumulative tot-size budget, and stops early if yield errors. The
// budget rule: an app is admitted while cumulative bytes so far are
// below TotSize; the app that crosses the budget is still emitted
// (matching elastic-generator semantics: tot-size is a floor on useful
// output, the stream never under-fills). This serial loop is the
// reference semantics the parallel fused pipeline must reproduce.
func (c *Config) Stream(yield func(StreamApp) error) error {
	var total int64
	for i := 0; c.Admit(i, total); i++ {
		raw, gt, err := c.GenerateRaw(i, nil)
		if err != nil {
			return fmt.Errorf("%s: %w", c.AppName(i), err)
		}
		total += int64(len(raw))
		if err := yield(StreamApp{Index: i, Name: c.AppName(i), Raw: raw, GT: gt}); err != nil {
			return err
		}
	}
	return nil
}

// Admit reports whether the i-th app is inside the budget given the
// cumulative serialized bytes of apps 0..i-1. Shared by the serial
// Stream and the parallel sequencer so cutoff semantics cannot drift.
func (c *Config) Admit(i int, bytesSoFar int64) bool {
	if c.Apps > 0 && i >= c.Apps {
		return false
	}
	if c.TotSize > 0 && bytesSoFar >= c.TotSize {
		return false
	}
	return true
}

// MixSummary renders the weighted mix for logs and -list-scenarios.
func (c *Config) MixSummary() string {
	var b strings.Builder
	for i, m := range c.Mix {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s:%d", m.Name, m.Weight)
		if len(m.Knobs) > 0 {
			keys := make([]string, 0, len(m.Knobs))
			for k := range m.Knobs {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			b.WriteByte('(')
			for j, k := range keys {
				if j > 0 {
					b.WriteByte(' ')
				}
				fmt.Fprintf(&b, "%s=%d", k, m.Knobs[k])
			}
			b.WriteByte(')')
		}
	}
	return b.String()
}
