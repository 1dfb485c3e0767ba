// Package report ranks and classifies race reports (§3.1 "Race
// prioritization" and §6.5's benign-guard analysis): races in app code
// outrank framework races reached from app code, which outrank library
// races; reference-typed races (NullPointerException risk) come first
// within each bucket; true races on guard variables are flagged benign.
package report

import (
	"fmt"
	"sort"

	"sierra/internal/actions"
	"sierra/internal/ir"
	"sierra/internal/race"
	"sierra/internal/symexec"
)

// Category buckets a race by the code it touches.
type Category int

const (
	// AppCode: both accesses in application classes.
	AppCode Category = iota
	// FrameworkFromApp: at least one access in framework code reached
	// from app code.
	FrameworkFromApp
	// LibraryCode: an access sits in bundled third-party library code.
	LibraryCode
)

func (c Category) String() string {
	return [...]string{"app", "framework", "library"}[c]
}

// Report is one ranked race.
type Report struct {
	Pair    race.Pair
	Verdict symexec.Verdict
	// Category is the prioritization bucket.
	Category Category
	// RefRace marks reference-typed races (possible NPE).
	RefRace bool
	// Benign marks the guard-variable pattern: a true race whose field
	// guards other accesses — bad practice, but usually harmless
	// (§6.5 found 74.8% of true races fit it).
	Benign bool
	// Rank is the 1-based position after sorting.
	Rank int
}

// Describe renders a one-line human-readable report.
func (r *Report) Describe(reg *actions.Registry) string {
	a, b := reg.Get(r.Pair.A.Action), reg.Get(r.Pair.B.Action)
	tag := ""
	if r.Benign {
		tag = " [benign-guard]"
	}
	if r.Verdict.BudgetExhausted {
		tag += " [budget]"
	}
	return fmt.Sprintf("#%d [%s]%s %s %s%s vs %s %s%s on %s",
		r.Rank, r.Category, tag,
		a.Name(), r.Pair.A.Kind, "", b.Name(), r.Pair.B.Kind, "", r.Pair.A.Location())
}

// Rank classifies and orders the surviving pairs. A race on a guard
// field (ir.Program.IsGuardField: loaded into a variable that an If in
// the same method tests) is tagged benign (§6.5): the guard itself is
// unsynchronized, yet each interleaving reads a consistent boolean.
func Rank(prog *ir.Program, pairs []race.Pair, verdicts []symexec.Verdict) []Report {
	out := make([]Report, 0, len(pairs))
	for i, p := range pairs {
		r := Report{Pair: p, Verdict: verdicts[i]}
		r.Category = categorize(p)
		r.RefRace = p.A.IsRef || p.B.IsRef
		r.Benign = prog.IsGuardField(p.A.Field)
		out = append(out, r)
	}
	// Decorate-sort: each pair's key is rendered once, not O(n log n)
	// times inside the comparator.
	keys := make([]string, len(out))
	for i := range out {
		keys[i] = out[i].Pair.Key()
	}
	sort.Stable(&byRank{reports: out, keys: keys})
	for i := range out {
		out[i].Rank = i + 1
	}
	return out
}

// byRank orders reports by category, reference races first, then pair
// key, over pre-rendered keys kept aligned with the reports.
type byRank struct {
	reports []Report
	keys    []string
}

func (s *byRank) Len() int { return len(s.reports) }
func (s *byRank) Less(i, j int) bool {
	a, b := &s.reports[i], &s.reports[j]
	if a.Category != b.Category {
		return a.Category < b.Category
	}
	if a.RefRace != b.RefRace {
		return a.RefRace
	}
	return s.keys[i] < s.keys[j]
}
func (s *byRank) Swap(i, j int) {
	s.reports[i], s.reports[j] = s.reports[j], s.reports[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

func categorize(p race.Pair) Category {
	if p.A.InLibrary || p.B.InLibrary {
		return LibraryCode
	}
	if p.A.InFramework || p.B.InFramework {
		return FrameworkFromApp
	}
	return AppCode
}

// Summary aggregates a report list.
type Summary struct {
	Total     int
	App       int
	Framework int
	Library   int
	RefRaces  int
	BenignPct float64
}

// Summarize computes aggregate statistics over the reports.
func Summarize(reports []Report) Summary {
	s := Summary{Total: len(reports)}
	benign := 0
	for _, r := range reports {
		switch r.Category {
		case AppCode:
			s.App++
		case FrameworkFromApp:
			s.Framework++
		default:
			s.Library++
		}
		if r.RefRace {
			s.RefRaces++
		}
		if r.Benign {
			benign++
		}
	}
	if s.Total > 0 {
		s.BenignPct = 100 * float64(benign) / float64(s.Total)
	}
	return s
}
