package symexec

import (
	"sort"
	"sync"
	"time"

	"sierra/internal/actions"
	"sierra/internal/pointer"
	"sierra/internal/race"
)

// CheckAll refutes every candidate pair and returns the verdicts
// aligned with a prefix of pairs, plus whether the run was interrupted
// by the configured context (the returned verdicts then cover only the
// pairs refuted before cancellation; the prefix is always contiguous).
//
// The pairs fan out over min(max(cfg.Jobs, 1), len(pairs)) workers.
// The inlined action graphs are prebuilt once and shared read-only,
// while every pair starts from empty memo tables, so each verdict is a
// pure function of its pair and the output is identical at any worker
// count. Observability is recorded by an in-order emitter, so the
// refute.* counters and histograms do not depend on scheduling
// either. A worker panic is isolated to its pair, which keeps the
// paper's over-approximate "report anyway" verdict instead of crashing
// the pipeline.
func CheckAll(reg *actions.Registry, res *pointer.Result, cfg Config, pairs []race.Pair) ([]Verdict, bool) {
	if len(pairs) == 0 {
		return []Verdict{}, false
	}
	ctx := cfg.Ctx
	tr := cfg.Obs
	workerCfg := cfg
	workerCfg.Obs = nil // workers stay silent; the emitter records
	base := NewRefuter(reg, res, workerCfg)
	// Prebuild every pair action's inlined graphs up front, in sorted
	// action order: after this the graph map is read-only, so forks can
	// share it without locks (and build effort is deterministic).
	seen := map[int]bool{}
	var aids []int
	for _, p := range pairs {
		for _, aid := range [2]int{p.A.Action, p.B.Action} {
			if aid >= 0 && aid < reg.NumActions() && !seen[aid] {
				seen[aid] = true
				aids = append(aids, aid)
			}
		}
	}
	sort.Ints(aids)
	for _, aid := range aids {
		base.actionGraphs(aid)
	}

	jobs := min(max(cfg.Jobs, 1), len(pairs))
	type result struct {
		v        Verdict
		pruned   int64
		capped   int64
		durMS    float64
		panicked bool
		done     bool
	}
	results := make([]result, len(pairs))
	idxCh := make(chan int)
	wbytes := make([]int64, jobs)
	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			// One fork per worker, recycled across pairs: check clears
			// every memo and rewinds the arenas before each pair, so
			// the worker does not re-pay the map and scratch
			// allocations per pair.
			wref := base.fork()
			for i := range idxCh {
				results[i] = func() (r result) {
					var t0 time.Time
					if tr != nil {
						t0 = time.Now()
					}
					defer func() {
						if rec := recover(); rec != nil {
							// Over-approximate, like budget exhaustion:
							// the pair is reported rather than lost. The
							// worker's refuter may hold half-walked
							// scratch (unbalanced visit counts), so
							// retire it and start the next pair clean.
							wbytes[slot] += wref.arenaBytes()
							wref = base.fork()
							r = result{
								v:        Verdict{TruePositive: true, BudgetExhausted: true},
								panicked: true,
								done:     true,
							}
						}
						if tr != nil {
							r.durMS = float64(time.Since(t0)) / 1e6
						} else {
							r.durMS = -1
						}
					}()
					v, pruned, capped := wref.check(pairs[i])
					return result{v: v, pruned: pruned, capped: capped, done: true}
				}()
			}
			wbytes[slot] += wref.arenaBytes()
		}(w)
	}
	for i := range pairs {
		if ctx != nil && ctx.Err() != nil {
			break
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	// Every fed index completed (cancellation only stops feeding, and
	// walkers bail budget-style when the context dies mid-pair), so the
	// done prefix is contiguous. Emit it in pair order.
	verdicts := make([]Verdict, 0, len(pairs))
	for i := 0; i < len(results) && results[i].done; i++ {
		recordVerdict(tr, results[i].v, results[i].pruned, results[i].capped, results[i].durMS)
		if results[i].panicked && tr != nil {
			tr.Count("refute.pair_panics", 1)
		}
		verdicts = append(verdicts, results[i].v)
	}
	if tr != nil {
		var ab int64
		for _, b := range wbytes {
			ab += b
		}
		if ab > 0 {
			tr.Count("symexec.arena_bytes", ab)
		}
	}
	return verdicts, len(verdicts) < len(pairs)
}

// fork returns a refuter sharing the receiver's read-only prebuilt
// state (callee map, action instances, inlined graphs) with private
// memo tables, walker scratch, and pruned/capped tallies, so forks can
// run on different goroutines.
func (r *Refuter) fork() *Refuter {
	nr := &Refuter{
		Reg:         r.Reg,
		Res:         r.Res,
		Cfg:         r.Cfg,
		callees:     r.callees,
		insts:       r.insts,
		graphs:      r.graphs,
		entryMemo:   map[entryKey]*entryResult{},
		witnessMemo: map[witnessKey]*wbucket{},
		ptsMemo:     map[ptsKey]pointer.ObjSet{},
		seedMemo:    map[int][]*frozen{},
		objWords:    r.objWords,
		cancelled:   r.cancelled,
	}
	nr.entrySinkFn = nr.recordEntryStore
	return nr
}
