package core

import (
	"context"
	"time"

	"sierra/internal/obs"
)

// Layer is one stage of the pipeline (Fig 3) as the ledger times it.
// Its name is the stage's span name and the name `sierra` prints for
// it (the summary line, `stage` events).
type Layer int

// The pipeline's layers, in pipeline order.
const (
	Harness   Layer = iota // harness generation
	CGPA                   // call graph, points-to analysis and action discovery
	SHBG                   // static happens-before graph
	Pairs                  // access collection and racy-pair generation
	Compare                // the plain-hybrid rerun (Options.CompareContexts)
	Refute                 // backward symbolic refutation
	Rank                   // survivor filter and report ranking
	NumLayers              // the layer count, not a layer
)

var layerNames = [NumLayers]string{"harness", "cgpa", "shbg", "pairs", "compare", "refute", "rank"}

// String returns the layer's name.
func (l Layer) String() string { return layerNames[l] }

// Ledger is one pass's wall clock split by layer. Total is read from the
// monotonic clock, from the pass's first boundary to its last, not
// summed from Layers; that the layers add up to it exactly is a checked
// property (TestAnalyzeTimingPartition). A layer the pass skipped is 0.
type Ledger struct {
	Layers [NumLayers]time.Duration
	Total  time.Duration
}

// Pass times one analysis pass through the layers into its Result's
// Ledger. Its first boundary is NewPass; each Step ends at the next.
type Pass struct {
	ctx         context.Context
	tr          *obs.Trace
	res         *Result
	start, last time.Time
}

// NewPass clears res.Ledger and starts a pass over res at its first
// boundary. ctx (nil = never cancelled) is checked at every later
// boundary: the first layer after which it is done is recorded in
// res.Interrupted and res.InterruptedStage.
func NewPass(ctx context.Context, tr *obs.Trace, res *Result) *Pass {
	now := time.Now()
	res.Ledger = Ledger{}
	return &Pass{ctx: ctx, tr: tr, res: res, start: now, last: now}
}

// Step runs layer l's work under its span, reads the clock once at the
// layer's end, and charges l everything since the previous boundary.
func (p *Pass) Step(l Layer, fn func()) {
	s := p.tr.Start(l.String())
	fn()
	s.End()
	now := time.Now()
	p.res.Ledger.Layers[l] += now.Sub(p.last)
	p.res.Ledger.Total = now.Sub(p.start)
	p.last = now
	// Harness and rank poll no context: a cancellation seen after
	// harness is recorded by cgpa, one seen after rank is refute's.
	if p.ctx != nil && l != Harness && !p.res.Interrupted && p.ctx.Err() != nil {
		p.res.Interrupted = true
		p.res.InterruptedStage = min(l, Refute).String()
	}
}
