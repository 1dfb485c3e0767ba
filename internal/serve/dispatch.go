package serve

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"time"

	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/incremental"
)

// doneJobsKept bounds the completed-job index a long-lived daemon
// retains for polling; older entries are pruned FIFO (their reports
// stay fetchable by digest — the store, not the job index, is the
// durable record).
const doneJobsKept = 10000

// dispatcher drains the submission queue: it blocks for the next job,
// opportunistically gathers everything else already queued, and runs
// the gathered slice as one batch.Run — so a burst of submissions
// shares one worker pool dispatch and the tracker describes it as one
// batch. Exits when the queue is closed (Drain) and empty.
func (s *Server) dispatcher() {
	defer close(s.dispatcherDone)
	for {
		job, ok := <-s.queue
		if !ok {
			return
		}
		pending := []*jobState{job}
	gather:
		for {
			select {
			case j, ok := <-s.queue:
				if !ok {
					break gather
				}
				pending = append(pending, j)
			default:
				break gather
			}
		}
		s.runBatch(pending)
	}
}

// runBatch serializes same-lineage jobs (revisions of one app must
// absorb into its warm baseline in submission order — and never
// concurrently, since tier-1/2 applies mutate the baseline in place)
// while keeping different lineages concurrent: the gathered slice is
// split into waves, wave k holding each lineage's k-th queued revision,
// and the waves run sequentially through batch.Run.
func (s *Server) runBatch(pending []*jobState) {
	byName := make(map[string][]*jobState)
	var order []string
	for _, js := range pending {
		if len(byName[js.name]) == 0 {
			order = append(order, js.name)
		}
		byName[js.name] = append(byName[js.name], js)
	}
	for wave := 0; ; wave++ {
		var ws []*jobState
		for _, n := range order {
			if wave < len(byName[n]) {
				ws = append(ws, byName[n][wave])
			}
		}
		if len(ws) == 0 {
			break
		}
		if wave > 0 {
			s.cfg.Obs.Count("serve.lineage_waves", 1)
		}
		s.runWave(ws)
	}
	// Bound the persistent store after each batch — daemon life, not
	// CLI life, is when "entries never expire" becomes a disk leak.
	if s.dstore != nil && s.cfg.CacheMaxBytes > 0 {
		if removed, _ := s.dstore.Sweep(s.cfg.CacheMaxBytes); removed > 0 {
			s.cfg.Obs.Count("serve.store_evictions", int64(removed))
		}
	}
}

func (s *Server) runWave(pending []*jobState) {
	now := time.Now()
	jobs := make([]batch.Job, len(pending))
	for i, js := range pending {
		js := js
		s.cfg.Obs.Observe("serve.job_wait_ms", float64(now.Sub(js.queuedAt))/1e6)
		js.set("running", "")
		jobs[i] = batch.Job{
			Name:  js.name + "@" + js.digest[:12],
			KeyFn: func() (string, error) { return s.reportKey(js.digest), nil },
			Fn:    func(ctx context.Context) ([]byte, error) { return s.analyze(ctx, js) },
		}
	}
	batch.Run(s.runCtx, jobs, batch.Options{
		Workers: s.cfg.Workers,
		Timeout: s.cfg.JobTimeout,
		Cache:   s.store,
		Obs:     s.cfg.Obs,
		Events:  s.cfg.Events,
		Tracker: s.tracker,
		OnResult: func(i int, r batch.Result) {
			js := pending[i]
			switch r.Status {
			case batch.StatusOK, batch.StatusCached:
				js.set("done", "")
				s.cfg.Obs.Count("serve.jobs_done", 1)
			default:
				msg := r.Err
				if msg == "" {
					msg = string(r.Status)
					if r.Panic != "" {
						if i := strings.IndexByte(r.Panic, '\n'); i >= 0 {
							msg += ": " + r.Panic[:i]
						} else {
							msg += ": " + r.Panic
						}
					}
				}
				js.set("failed", msg)
				s.cfg.Obs.Count("serve.jobs_failed", 1)
			}
			s.finishJob(js)
		},
	})
}

// analyze is one job's body: incremental against the lineage's warm
// baseline when the fingerprint planner proves it safe, full pipeline
// otherwise. Either way the returned document is byte-identical to what
// a cold full run would render.
func (s *Server) analyze(ctx context.Context, js *jobState) ([]byte, error) {
	app, raw := js.app, js.raw
	js.app = nil // one-shot: the program is about to be mutated
	tr := s.cfg.Obs
	fp := incremental.Compute(app)

	if base := s.pool.Lookup(js.name); base != nil {
		// The job's context (its deadline, ForceCancel) bounds a warm
		// apply as it bounds a cold run: already done, the apply
		// declines untouched; done mid-apply, it poisons the baseline.
		refCfg, shbgOpts := s.opts.Refuter, s.opts.SHBG
		refCfg.Ctx, shbgOpts.Ctx = ctx, ctx
		base.Mu.Lock()
		if _, ok := base.ApplyStages(app, fp, js.digest, refCfg, shbgOpts, tr); ok {
			doc := RenderReport(js.digest, base.Res)
			base.Mu.Unlock()
			return doc, nil
		}
		poisoned := base.Poisoned
		base.Mu.Unlock()
		if poisoned {
			// A failed mid-patch leaves both the baseline and the donor
			// program suspect (bodies were transplanted); discard the
			// baseline and re-parse the submission for the full run.
			s.pool.Drop(js.name)
			fresh, err := appfile.Read(bytes.NewReader(raw))
			if err != nil {
				return nil, err
			}
			app = fresh
			fp = incremental.Compute(app)
		}
	}

	res := core.AnalyzeContext(ctx, app, s.opts)
	if res.Interrupted {
		return nil, fmt.Errorf("analysis interrupted at stage %q", res.InterruptedStage)
	}
	tr.Count("race.pairs_total", int64(len(res.RacyPairs)))
	if evicted := s.pool.Store(&incremental.Baseline{
		Name: js.name, Digest: js.digest, FP: fp, App: app, Res: res,
		Warm: res.PTAWarm,
	}); evicted > 0 {
		tr.Count("serve.baseline_evictions", int64(evicted))
	}
	return RenderReport(js.digest, res), nil
}

// finishJob retires a completed job from the in-flight dedup index and
// prunes the oldest completed entries beyond the retention cap.
func (s *Server) finishJob(js *jobState) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.byDigest[js.digest] == js {
		delete(s.byDigest, js.digest)
	}
	s.doneOrder = append(s.doneOrder, js.id)
	for len(s.doneOrder) > doneJobsKept {
		delete(s.jobs, s.doneOrder[0])
		s.doneOrder = s.doneOrder[1:]
	}
}

// Drain gracefully winds the service down: new submissions are rejected
// (503), the queue is closed, and the call blocks until the dispatcher
// has finished every in-flight batch (each analysis bounded by the
// per-job deadline). Idempotent; safe to call from the signal handler.
func (s *Server) Drain() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		<-s.dispatcherDone
		return
	}
	s.draining = true
	close(s.queue)
	s.mu.Unlock()
	s.cfg.Obs.Count("serve.drains", 1)
	<-s.dispatcherDone
}

// ForceCancel hard-cancels in-flight analyses (they bail cooperatively
// and their jobs fail); the escalation path behind a second signal.
func (s *Server) ForceCancel() { s.cancelRun() }

// Close releases the listener and HTTP server. Call after Drain for a
// graceful exit, or directly for an abrupt one.
func (s *Server) Close() error {
	if s.hsrv != nil {
		return s.hsrv.Close()
	}
	return nil
}
