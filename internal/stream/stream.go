// Package stream fuses config-driven corpus generation into the batch
// analysis engine: generation workers produce apps speculatively, a
// sequencer emits them in index order under the config's budget, and
// the batch engine's bounded prefetch queue applies backpressure so
// peak RSS is bounded by (speculation window + prefetch queue + one
// per analysis worker) × max app size — never by corpus size. No byte
// of the corpus touches disk.
//
// Determinism: every app is a pure function of (config, index), and
// the budget cutoff is applied on in-order cumulative bytes, so any
// generation worker count produces the same admitted stream as the
// serial reference loop (Config.Stream) — byte for byte.
package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/obs"
)

// Summary is the per-app verdict a corpus sweep stores per job — the
// one JSON schema shared by `sierra -batch`, `sierra -stream`, and the
// result cache, which is what makes disk and stream runs byte-
// comparable.
type Summary struct {
	App          string  `json:"app"`
	Harnesses    int     `json:"harnesses"`
	Actions      int     `json:"actions"`
	HBEdges      int     `json:"hb_edges"`
	RacyPairs    int     `json:"racy_pairs"`
	Races        int     `json:"races"`
	TotalSeconds float64 `json:"total_seconds"`
	Interrupted  bool    `json:"interrupted"`
}

// AnalyzeFn turns one serialized app into its serialized job result.
type AnalyzeFn func(ctx context.Context, name string, raw []byte) ([]byte, error)

// Analyzer builds the standard pipeline AnalyzeFn: parse, run the
// SIERRA analysis under opts, marshal a Summary. When absorb is
// non-nil each job runs with its own obs trace whose snapshot is
// absorbed into it (the live `-stats`/`-debug-addr` path); opts.Obs is
// overridden per job in that case.
func Analyzer(opts core.Options, absorb *obs.Trace) AnalyzeFn {
	return func(ctx context.Context, name string, raw []byte) ([]byte, error) {
		app, err := appfile.Read(bytes.NewReader(raw))
		if err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		o := opts
		if absorb != nil {
			o.Obs = obs.New("sierra:" + app.Name)
		}
		res := core.AnalyzeContext(ctx, app, o)
		if absorb != nil {
			absorb.Absorb(o.Obs.Snapshot())
		}
		return json.Marshal(Summary{
			App:          app.Name,
			Harnesses:    res.NumHarnesses(),
			Actions:      res.NumActions(),
			HBEdges:      res.HBEdges(),
			RacyPairs:    len(res.RacyPairs),
			Races:        res.TrueRaces(),
			TotalSeconds: res.Ledger.Total.Seconds(),
			Interrupted:  res.Interrupted,
		})
	}
}

// SourceOptions tunes a fused generation source.
type SourceOptions struct {
	// GenJobs is the generation worker count (0 or 1 = one worker).
	GenJobs int
	// Window bounds speculation: workers may generate at most this many
	// indices ahead of the in-order emission point (0 = 2×GenJobs,
	// min 1). Together with batch.Options.Prefetch this is the RSS
	// bound; overshoot past the byte budget wastes at most Window
	// generations.
	Window int
	// Fingerprint is the cache-key option fingerprint appended to each
	// app's content digest (see batch.Key).
	Fingerprint []string
	// Obs receives corpusgen.* telemetry: apps/bytes admitted, buffers
	// recycled, discarded speculative overshoot, per-app generation
	// latency.
	Obs *obs.Trace
}

// genItem is one speculatively generated app in flight to the
// sequencer.
type genItem struct {
	i    int
	name string
	raw  []byte
	err  error
}

// Source generates apps from a Config on a pool of generation workers
// and yields analysis jobs in index order under the budget. It
// implements batch.Source; it deliberately does not implement
// batch.Sized even for a pure count-capped config, so runs over it are
// always streaming runs (growing totals, batch.stream_* telemetry).
type Source struct {
	cfg     *Config
	analyze AnalyzeFn
	o       SourceOptions

	start    sync.Once
	done     chan struct{}
	stop     sync.Once
	credits  chan struct{}
	items    chan genItem
	pool     chan []byte
	pending  map[int]genItem
	nextEmit int
	bytes    int64
}

// NewSource builds a fused generation source over cfg. The source is
// single-consumer (batch.RunSource's producer goroutine).
func NewSource(cfg *Config, analyze AnalyzeFn, o SourceOptions) *Source {
	if o.GenJobs < 1 {
		o.GenJobs = 1
	}
	if o.Window < 1 {
		o.Window = 2 * o.GenJobs
	}
	if o.Window < o.GenJobs {
		o.Window = o.GenJobs
	}
	return &Source{
		cfg:     cfg,
		analyze: analyze,
		o:       o,
		done:    make(chan struct{}),
		credits: make(chan struct{}, o.Window),
		items:   make(chan genItem, o.Window),
		pool:    make(chan []byte, o.Window+2),
		pending: make(map[int]genItem, o.Window),
	}
}

// launch starts the ticket coordinator and the generation workers.
func (s *Source) launch() {
	for i := 0; i < s.o.Window; i++ {
		s.credits <- struct{}{}
	}
	tickets := make(chan int)
	go func() {
		defer close(tickets)
		for i := 0; ; i++ {
			if s.cfg.Apps > 0 && i >= s.cfg.Apps {
				return
			}
			select {
			case <-s.credits:
			case <-s.done:
				return
			}
			select {
			case tickets <- i:
			case <-s.done:
				return
			}
		}
	}()
	for w := 0; w < s.o.GenJobs; w++ {
		go func() {
			for i := range tickets {
				t0 := time.Now()
				raw, _, err := s.cfg.GenerateRaw(i, s.getBuf())
				s.o.Obs.Observe("corpusgen.gen_ms", float64(time.Since(t0))/1e6)
				select {
				case s.items <- genItem{i: i, name: s.cfg.AppName(i), raw: raw, err: err}:
				case <-s.done:
					return
				}
			}
		}()
	}
}

// Stop terminates generation. Safe to call more than once; Next stops
// on its own at the budget, on ctx cancellation, and on a generation
// error, but an external caller abandoning the source early should
// Stop it to release the workers.
func (s *Source) Stop() {
	s.stop.Do(func() { close(s.done) })
}

func (s *Source) getBuf() []byte {
	select {
	case b := <-s.pool:
		return b
	default:
		return nil
	}
}

func (s *Source) putBuf(b []byte) {
	if b == nil {
		return
	}
	select {
	case s.pool <- b[:0]:
		s.o.Obs.Count("corpusgen.buffers_recycled", 1)
	default:
	}
}

// Next yields the next in-order admitted app as an analysis job —
// batch.Source's contract. It blocks while generation catches up with
// the emission point (and ctx governs that wait).
func (s *Source) Next(ctx context.Context) (batch.Job, bool, error) {
	s.start.Do(s.launch)
	if ctx == nil {
		ctx = context.Background()
	}
	if !s.cfg.Admit(s.nextEmit, s.bytes) {
		s.Stop()
		s.discardPending()
		return batch.Job{}, false, nil
	}
	for {
		if it, ok := s.pending[s.nextEmit]; ok {
			delete(s.pending, s.nextEmit)
			if it.err != nil {
				s.Stop()
				return batch.Job{}, false, fmt.Errorf("generating %s: %w", it.name, it.err)
			}
			s.nextEmit++
			s.bytes += int64(len(it.raw))
			s.o.Obs.Count("corpusgen.apps", 1)
			s.o.Obs.Count("corpusgen.bytes", int64(len(it.raw)))
			select {
			case s.credits <- struct{}{}:
			default:
			}
			return s.job(it), true, nil
		}
		select {
		case it := <-s.items:
			s.pending[it.i] = it
		case <-ctx.Done():
			s.Stop()
			return batch.Job{}, false, nil
		}
	}
}

// job wraps one admitted app as a batch job. The raw buffer is returned
// to the generation pool by Cleanup once the job settles — including
// cache hits and cancellations, where Fn never runs.
func (s *Source) job(it genItem) batch.Job {
	raw := it.raw
	name := it.name
	return batch.Job{
		Name: name + ".app",
		KeyFn: func() (string, error) {
			return batch.Key(batch.RawDigest(raw), s.o.Fingerprint...), nil
		},
		Fn: func(ctx context.Context) ([]byte, error) {
			return s.analyze(ctx, name, raw)
		},
		Cleanup: func() { s.putBuf(raw) },
	}
}

// discardPending recycles buffers of speculative apps generated past
// the budget cutoff.
func (s *Source) discardPending() {
	n := 0
	for i, it := range s.pending {
		s.putBuf(it.raw)
		delete(s.pending, i)
		n++
	}
	for {
		select {
		case it := <-s.items:
			s.putBuf(it.raw)
			n++
		default:
			if n > 0 {
				s.o.Obs.Count("corpusgen.discarded", int64(n))
			}
			return
		}
	}
}

// Emitted reports the admitted app count and byte total so far.
func (s *Source) Emitted() (apps int, bytes int64) { return s.nextEmit, s.bytes }

// VerdictTable renders results as a deterministic TSV verdict
// artifact: one row per app with the headline analysis numbers.
// Job names are reduced to their path base so a disk-materialized run
// (names are file paths) and a streamed run (names are app names) of
// the same corpus render byte-identical tables; timings are excluded
// for the same reason.
func VerdictTable(results []batch.Result) []byte {
	var b bytes.Buffer
	b.WriteString("app\tstatus\tharnesses\tactions\thb_edges\tracy_pairs\traces\tinterrupted\n")
	for _, r := range results {
		name := strings.TrimSuffix(filepath.Base(r.Name), ".app")
		var s Summary
		if len(r.Value) > 0 && json.Unmarshal(r.Value, &s) == nil {
			fmt.Fprintf(&b, "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%t\n",
				name, r.Status, s.Harnesses, s.Actions, s.HBEdges,
				s.RacyPairs, s.Races, s.Interrupted)
			continue
		}
		fmt.Fprintf(&b, "%s\t%s\t-\t-\t-\t-\t-\t-\n", name, r.Status)
	}
	return b.Bytes()
}
