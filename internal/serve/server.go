package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/incremental"
	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
	"sierra/internal/obs/export"
	"sierra/internal/symexec"
)

// maxAppBytes caps a submission body. The Table 2 corpus tops out well
// under a megabyte of canonical text; 16 MiB leaves room for apps two
// orders of magnitude bigger while still bounding a hostile client.
const maxAppBytes = 16 << 20

// Config tunes the daemon.
type Config struct {
	// Workers bounds concurrent analyses (0 = GOMAXPROCS).
	Workers int
	// JobTimeout is the per-analysis deadline (0 = none). A timed-out
	// analysis fails its job; partial results are never stored.
	JobTimeout time.Duration
	// RefuteJobs sizes the per-analysis refutation pool, resolved by
	// the package-level RefuteJobs (0 = GOMAXPROCS, at least 2).
	// Per-pair-pure refutation is what makes verdicts order-independent,
	// which incremental verdict splicing and report byte-parity both
	// require (see symexec.Checker).
	RefuteJobs int
	// MaxPaths/MaxDepth tune the refuter budget (0 = defaults). Part of
	// the report cache fingerprint.
	MaxPaths, MaxDepth int
	// StoreDir roots the persistent sharded report store; empty keeps
	// reports in memory only.
	StoreDir string
	// CacheMaxBytes bounds the persistent store (the -cache-max-bytes
	// flag): a best-effort LRU-by-mtime sweep runs after each batch.
	// 0 = unbounded.
	CacheMaxBytes int64
	// MemCacheEntries caps the in-memory report cache used when
	// StoreDir is empty (0 = a generous default).
	MemCacheEntries int
	// Baselines caps the warm incremental baseline pool (0 = default).
	Baselines int
	// BaselineMaxBytes bounds the baseline pool by estimated resident
	// bytes (the -baseline-max-bytes flag): program IR plus points-to,
	// SHBG, and pair/verdict tables per lineage, LRU-evicted beyond the
	// budget. 0 = no byte budget (entry cap only).
	BaselineMaxBytes int64
	// QueueDepth bounds accepted-but-unstarted submissions (0 = 1024).
	QueueDepth int
	// Obs receives service counters and histograms; Events receives the
	// flight-recorder stream. Both may be nil.
	Obs    *obs.Trace
	Events *eventlog.Recorder
}

// Server is the running service: HTTP handlers feeding a dispatcher
// goroutine that drains submissions through batch.Run.
type Server struct {
	cfg     Config
	store   batch.Cache
	dstore  *Store // non-nil when StoreDir-backed (swept after batches)
	pool    *incremental.Pool
	tracker *batch.Tracker
	ln      net.Listener
	hsrv    *http.Server

	// runCtx cancels in-flight analyses (ForceCancel).
	runCtx    context.Context
	cancelRun context.CancelFunc

	mu        sync.Mutex
	draining  bool
	nextID    int
	jobs      map[string]*jobState
	byDigest  map[string]*jobState // in-flight dedup: digest → live job
	doneOrder []string             // completed job ids, oldest first
	queue     chan *jobState

	dispatcherDone chan struct{}
}

// jobState tracks one submission through the pipeline.
type jobState struct {
	id     string
	digest string
	name   string // app name (lineage key)
	raw    []byte
	app    *apk.App

	queuedAt time.Time

	mu     sync.Mutex
	status string // "queued", "running", "done", "failed"
	errMsg string
}

func (j *jobState) set(status, errMsg string) {
	j.mu.Lock()
	j.status, j.errMsg = status, errMsg
	j.mu.Unlock()
}

func (j *jobState) get() (string, string) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status, j.errMsg
}

// RefuteJobs resolves a -refute-jobs value the way both the daemon and
// the one-shot `sierra` CLI must, so their reports stay byte-identical:
// 0 means GOMAXPROCS, and anything below 2 is raised to 2. At two or
// more workers symexec.CheckAll runs every pair on a private memo fork,
// making each verdict and its path count a pure function of the pair;
// the one-worker shared-memo refuter lets earlier pairs' memos change
// later pairs' path counts, which the canonical report records.
func RefuteJobs(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(n, 2)
}

// New assembles a server (no listener yet; Start binds it).
func New(cfg Config) (*Server, error) {
	cfg.RefuteJobs = RefuteJobs(cfg.RefuteJobs)
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 1024
	}
	runCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:       cfg,
		pool:      incremental.NewPool(cfg.Baselines, cfg.BaselineMaxBytes),
		tracker:   &batch.Tracker{},
		runCtx:    runCtx,
		cancelRun: cancel,
		jobs:      map[string]*jobState{},
		byDigest:  map[string]*jobState{},
		queue:     make(chan *jobState, cfg.QueueDepth),

		dispatcherDone: make(chan struct{}),
	}
	if cfg.StoreDir != "" {
		st, err := NewStore(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		s.store, s.dstore = st, st
	} else {
		n := cfg.MemCacheEntries
		if n <= 0 {
			n = 4096
		}
		s.store = batch.NewMemCacheCap(n)
	}
	return s, nil
}

// Start binds addr (":0" picks a free port — see Addr) and begins
// serving the API and the dispatcher.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	go s.hsrv.Serve(ln)
	go s.dispatcher()
	return nil
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handler returns the service mux: the /v1 API plus the export debug
// endpoints (/metrics, /progress, /events, /healthz, /debug/pprof) so
// one port exposes both the service and its live telemetry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/apps", s.handleSubmit)
	mux.HandleFunc("/v1/jobs/", s.handleJob)
	mux.HandleFunc("/v1/reports/", s.handleReport)
	mux.Handle("/", export.Handler(export.Options{
		Trace:    s.cfg.Obs,
		Events:   s.cfg.Events,
		Progress: func() any { return s.progress() },
	}))
	return mux
}

// serveProgress is the /progress payload's service half.
type serveProgress struct {
	Draining      bool           `json:"draining"`
	Queued        int            `json:"queued"`
	Jobs          int            `json:"jobs"`
	Baselines     int            `json:"baselines"`
	BaselineBytes int64          `json:"baseline_bytes"`
	Batch         batch.Progress `json:"batch"`
}

func (s *Server) progress() serveProgress {
	s.mu.Lock()
	p := serveProgress{
		Draining: s.draining,
		Queued:   len(s.queue),
		Jobs:     len(s.jobs),
	}
	s.mu.Unlock()
	p.Baselines = s.pool.Len()
	p.BaselineBytes = s.pool.Bytes()
	p.Batch = s.tracker.Snapshot()
	return p
}

// submitResponse is POST /v1/apps's body.
type submitResponse struct {
	JobID  string `json:"job_id"`
	Digest string `json:"digest"`
	Status string `json:"status"`
	// Report is the fetch path, present once the report exists.
	Report string `json:"report,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST an .app document")
		return
	}
	raw, err := io.ReadAll(io.LimitReader(r.Body, maxAppBytes+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, "reading body: "+err.Error())
		return
	}
	if len(raw) > maxAppBytes {
		httpError(w, http.StatusRequestEntityTooLarge, "app exceeds size cap")
		return
	}
	// Parse (and validate) before accepting: a malformed submission is
	// the client's error and must never become a queued job that fails
	// server-side.
	app, err := appfile.Read(bytes.NewReader(raw))
	if err != nil {
		s.cfg.Obs.Count("serve.malformed", 1)
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	// An empty body parses into an empty, nameless app; the name is the
	// incremental lineage key, so a nameless submission is malformed.
	if app.Name == "" {
		s.cfg.Obs.Count("serve.malformed", 1)
		httpError(w, http.StatusBadRequest, "app document has no app name")
		return
	}
	digest := batch.RawDigest(raw)
	s.cfg.Obs.Count("serve.submissions", 1)

	// Already stored? The submission is a duplicate of a completed
	// revision — answer without a job.
	if _, ok := s.store.Get(s.reportKey(digest)); ok {
		s.cfg.Obs.Count("serve.report_hits", 1)
		writeJSON(w, http.StatusOK, submitResponse{
			Digest: digest, Status: "done", Report: "/v1/reports/" + digest,
		})
		return
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	// In-flight dedup: concurrent submissions of one digest share a job.
	if live, ok := s.byDigest[digest]; ok {
		s.mu.Unlock()
		s.cfg.Obs.Count("serve.dedup_hits", 1)
		status, _ := live.get()
		writeJSON(w, http.StatusAccepted, submitResponse{
			JobID: live.id, Digest: digest, Status: status,
		})
		return
	}
	s.nextID++
	job := &jobState{
		id:       fmt.Sprintf("j%d", s.nextID),
		digest:   digest,
		name:     app.Name,
		raw:      raw,
		app:      app,
		status:   "queued",
		queuedAt: time.Now(),
	}
	select {
	case s.queue <- job:
	default:
		s.mu.Unlock()
		httpError(w, http.StatusServiceUnavailable, "queue full")
		return
	}
	s.jobs[job.id] = job
	s.byDigest[digest] = job
	s.mu.Unlock()

	writeJSON(w, http.StatusAccepted, submitResponse{
		JobID: job.id, Digest: digest, Status: "queued",
	})
}

// jobResponse is GET /v1/jobs/{id}'s body.
type jobResponse struct {
	JobID  string `json:"job_id"`
	Digest string `json:"digest"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
	Report string `json:"report,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
	s.mu.Lock()
	job, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	status, errMsg := job.get()
	resp := jobResponse{JobID: job.id, Digest: job.digest, Status: status, Error: errMsg}
	if status == "done" {
		resp.Report = "/v1/reports/" + job.digest
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	digest := strings.TrimPrefix(r.URL.Path, "/v1/reports/")
	doc, ok := s.store.Get(s.reportKey(digest))
	if !ok {
		httpError(w, http.StatusNotFound, "no report for digest "+digest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

// reportKey is the store key for a revision's report: the content
// digest plus the analysis-config fingerprint, so a daemon restarted
// with different refutation budgets never serves stale documents.
func (s *Server) reportKey(digest string) string {
	return batch.Key(digest,
		"serve-report",
		"policy=action[k=2]",
		"solver=delta",
		fmt.Sprintf("maxpaths=%d", s.cfg.MaxPaths),
		fmt.Sprintf("maxdepth=%d", s.cfg.MaxDepth),
	)
}

// refuterConfig is the daemon's pinned refutation config. RefuteJobs ≥ 2
// selects per-pair-pure checking; the budget knobs are in the report key.
func (s *Server) refuterConfig() symexec.Config {
	return symexec.Config{
		MaxPaths: s.cfg.MaxPaths,
		MaxDepth: s.cfg.MaxDepth,
		Jobs:     s.cfg.RefuteJobs,
	}
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
