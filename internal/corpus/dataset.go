package corpus

import (
	"fmt"
	"math/rand"
	"sort"

	"sierra/internal/apk"
)

// PaperRow is one row of the paper's Tables 2 and 3 for the 20-app
// dataset: dataset metadata (installs, bytecode size) plus the reported
// per-app measurements used to derive generation knobs.
type PaperRow struct {
	Name     string
	Installs string
	// SizeKB is the .dex size from Table 2.
	SizeKB int
	// Table 3 columns.
	Harnesses       int
	Actions         int
	HBEdges         int
	OrderedPct      int
	RacyNoAS        int
	RacyAS          int
	AfterRefutation int
	TrueRaces       int
	FP              int
	// EventRacer races; -1 where the paper could not run it.
	EventRacer int
}

// PaperRows returns the 20-app dataset exactly as Tables 2 and 3 report
// it.
func PaperRows() []PaperRow {
	return []PaperRow{
		{"APV", "500,000–1,000,000", 736, 4, 84, 1648, 47, 75, 25, 10, 8, 2, 3},
		{"Astrid", "100,000–500,000", 5400, 6, 147, 2755, 26, 319, 83, 54, 37, 17, -1},
		{"BarcodeScanner", "100,000,000–500,000,000", 808, 9, 136, 2756, 30, 64, 24, 15, 11, 4, 7},
		{"Beem", "50,000–100,000", 1700, 12, 169, 3724, 26, 467, 73, 13, 10, 0, 0},
		{"ConnectBot", "1,000,000–5,000,000", 700, 11, 171, 4829, 33, 567, 96, 58, 43, 15, 16},
		{"FBReader", "10,000,000–50,000,000", 1013, 27, 259, 4710, 14, 836, 285, 106, 93, 13, 5},
		{"K-9Mail", "5,000,000–10,000,000", 2800, 29, 312, 5725, 12, 1347, 370, 89, 72, 17, 1},
		{"KeePassDroid", "1,000,000–5,000,000", 489, 15, 216, 4076, 18, 266, 61, 27, 16, 1, 0},
		{"Mileage", "500,000–1,000,000", 641, 50, 331, 8498, 16, 496, 195, 36, 33, 3, 1},
		{"MyTracks", "500,000–1,000,000", 5300, 8, 198, 6826, 35, 634, 174, 80, 75, 5, 34},
		{"NPRNews", "1,000,000–5,000,000", 1500, 13, 490, 10673, 9, 607, 132, 21, 21, 0, 3},
		{"NotePad", "10,000,000–50,000,000", 228, 9, 72, 609, 24, 436, 65, 31, 27, 4, 9},
		{"OpenManager", "N/A", 77, 6, 92, 1036, 25, 532, 113, 55, 51, 4, 5},
		{"OpenSudoku", "1,000,000–5,000,000", 170, 10, 141, 1425, 14, 426, 158, 110, 83, 27, 72},
		{"SipDroid", "1,000,000–5,000,000", 539, 11, 206, 2386, 11, 321, 94, 27, 17, 10, -1},
		{"SuperGenPass", "10,000–50,000", 137, 2, 43, 343, 38, 82, 16, 6, 6, 0, 3},
		{"TippyTipper", "100,000–500,000", 79, 5, 100, 1864, 38, 93, 21, 9, 7, 2, 1},
		{"VLC", "100,000,000–500,000,000", 1100, 13, 151, 2349, 20, 202, 78, 35, 32, 3, 0},
		{"VuDroid", "100,000–500,000", 63, 3, 45, 150, 15, 62, 27, 10, 10, 0, 5},
		{"XBMC", "100,000–500,000", 1100, 13, 330, 4218, 8, 445, 137, 63, 48, 15, 17},
	}
}

// NamedApp generates the synthetic stand-in for one named dataset app,
// returning the app and its planted ground truth.
func NamedApp(row PaperRow) (*apk.App, *GroundTruth) {
	rng := rand.New(rand.NewSource(seedFor(row.Name)))
	k := DeriveKnobs(row, rng)
	return Generate(row.Name, row.Installs, k)
}

// seedFor derives a stable per-name seed.
func seedFor(name string) int64 {
	var h int64 = 1469598103934665603
	for _, c := range name {
		h ^= int64(c)
		h *= 1099511628211
	}
	if h < 0 {
		h = -h
	}
	return h
}

// FDroidRow synthesizes the i-th app of the 174-app dataset (Table 5).
// Sizes and structure are sampled so the medians land near the paper's
// (median bytecode 1.1 MB-equivalent, 4.5 harnesses, ~67.5 actions).
func FDroidRow(i int) PaperRow {
	rng := rand.New(rand.NewSource(int64(9091*i + 17)))
	harnesses := 2 + rng.Intn(6) // 2..7, median ~4.5
	actions := harnesses*10 + 10 + rng.Intn(40)
	racyAS := 30 + rng.Intn(80)
	after := racyAS * (35 + rng.Intn(30)) / 100
	trueRaces := after * (75 + rng.Intn(20)) / 100
	return PaperRow{
		Name:            fmt.Sprintf("fdroid-%03d", i),
		Installs:        "F-Droid",
		SizeKB:          400 + rng.Intn(1500),
		Harnesses:       harnesses,
		Actions:         actions,
		RacyNoAS:        racyAS * (4 + rng.Intn(3)),
		RacyAS:          racyAS,
		AfterRefutation: after,
		TrueRaces:       trueRaces,
		FP:              rng.Intn(6),
		EventRacer:      -1,
	}
}

// FDroidApp generates the i-th 174-app dataset member.
func FDroidApp(i int) (*apk.App, *GroundTruth) {
	row := FDroidRow(i)
	rng := rand.New(rand.NewSource(int64(31 + i)))
	k := DeriveKnobs(row, rng)
	return Generate(row.Name, row.Installs, k)
}

// FDroidCount is the size of the generated dataset (Table 5).
const FDroidCount = 174

// SynthLarge generates the padding-free large app the kernel
// benchmarks and reference checks share: hundreds of actions and over
// a thousand accesses (~231 and ~1.4k), and no unreachable padding.
func SynthLarge() *apk.App {
	app, _ := Generate("SynthLarge", "1M", Knobs{
		Activities: 8, AsyncTotal: 24, AsyncFields: 3,
		GuardTotal: 12, GuardFields: 2,
		ImplicitTotal: 8, ImplicitFields: 2,
		TrapOnlyTotal: 8, FillerTotal: 24,
		WithReceiver: true, WithService: true, WithHandlerThread: true,
	})
	return app
}

// Names returns the named dataset's app names in table order.
func Names() []string {
	rows := PaperRows()
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = r.Name
	}
	return out
}

// RowByName finds a named dataset row.
func RowByName(name string) (PaperRow, bool) {
	for _, r := range PaperRows() {
		if r.Name == name {
			return r, true
		}
	}
	return PaperRow{}, false
}

// SortedTrueFields lists a ground truth's true fields (test helper).
func (gt *GroundTruth) SortedTrueFields() []string {
	out := make([]string, 0, len(gt.TrueFields))
	for f := range gt.TrueFields {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}
