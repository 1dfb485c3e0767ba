package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"strings"
	"time"

	"sierra/internal/apk"
	"sierra/internal/appfile"
	"sierra/internal/batch"
	"sierra/internal/core"
	"sierra/internal/corpus"
	"sierra/internal/incremental"
	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
	"sierra/internal/serve"
	"sierra/internal/shbg"
	"sierra/internal/symexec"
)

const (
	// serveGroups sizes the StageDemo lineage (independent listener
	// trios); an edit touches group 0 only.
	serveGroups = 24
	// servePoll is the job-status poll interval, well below the
	// workload's p50 (and its warm ops), so polling does not quantize the
	// latency. Shorter intervals add polls that compete with the job for
	// the CPUs and made the figures no steadier.
	servePoll = time.Millisecond
	// serveSetupReps is how many daemons are booted per process;
	// setup_s is the median boot-plus-cold-baseline time and the last
	// daemon serves the timed phase.
	serveSetupReps = 11
	// serveBlocksPerSecond fixes the run's revision count at this many
	// schedule blocks per requested second (45 revisions/s, a little
	// below this workload's throughput). A fixed count keeps memory
	// metrics comparable: the daemon retains every completed job and
	// stored report, so its RSS grows with the revisions it has served.
	serveBlocksPerSecond = 3
	// serveWindowBlocks is the measurement window (~2 s); rates are the
	// median over windows.
	serveWindowBlocks = 6
)

// tier is the incremental path a revision is planned to (and must) take.
type tier int

const (
	tier1 tier = iota // skeleton-invisible edit: whole-stage reuse
	tier2             // skeleton-visible dataflow sink: partial stage reuse
	cold              // call-graph or shape edit: planned fallback to a cold run
)

func (t tier) String() string { return [...]string{"tier1", "tier2", "cold"}[t] }

// editClass is one class of the incremental engine's edit-class catalog
// (TestEditClassParity in internal/incremental), or the reverse of one,
// and the tier it must land on.
type editClass struct {
	name string
	tier tier
}

// editClasses is the catalog in its own order, then the reverse of each
// catalog edit that has no reverse in it. A schedule block submits one
// revision per class, so it applies every catalog edit once and ends on
// the content it started from. The reverses are removals the tier-2
// gate declines (a load with a live base, a const, a new, a method), so
// they fall back, and the mix is 1 tier-1 : 5 tier-2 : 9 fallback.
var editClasses = []editClass{
	{"if-operand", tier1},
	{"insert-load", tier2},
	{"insert-const", tier2},
	{"insert-new", tier2},
	{"insert-binop", tier2},
	{"remove-binop", tier2},
	{"insert-call", cold},
	{"remove-call", cold},
	{"handler-add", cold},
	{"handler-remove", cold},
	{"method-add", cold},
	{"remove-load", cold},
	{"remove-const", cold},
	{"remove-new", cold},
	{"method-remove", cold},
}

// The catalog's inserted dataflow sinks on group 0's Click2 listener,
// each with its own destination so that several can stand in one
// revision. The tier-2 gate admits only inserts and removals at the end
// of a basic block, so an insert appends and remove-binop needs the BinOp
// last.
const (
	loadStmt  = "load w1 a f1_0"
	constStmt = "const w2 int 42"
	newStmt   = "new w3 Task1_0"
	binopStmt = "binop w4 + c c"
)

// lineageState is the content of a StageDemo revision: what the catalog
// edits so far have left in group 0.
type lineageState struct {
	ifZero  bool   // branch condition "c == 0" instead of "c == 1"
	stmts   string // inserted statements in insertion order, one per line
	call    bool   // a helper call in the fallthrough block
	handler bool   // a fourth listener class
	method  bool   // an extra Act0 method
}

func (s lineageState) has(stmt string) bool {
	return slices.Contains(strings.Split(s.stmts, "\n"), stmt)
}

// sinkOf is the statement a sink insert or removal class edits.
var sinkOf = map[string]string{
	"insert-load": loadStmt, "insert-const": constStmt, "insert-new": newStmt, "insert-binop": binopStmt,
	"remove-load": loadStmt, "remove-const": constStmt, "remove-new": newStmt, "remove-binop": binopStmt,
}

// applies reports whether edit class c applies to this content: an
// insert finds its edit absent, a removal finds it present.
func (s lineageState) applies(c string) bool {
	switch c {
	case "if-operand":
		return true
	case "remove-binop":
		return strings.HasSuffix(s.stmts, binopStmt)
	case "insert-call", "remove-call":
		return s.call == (c == "remove-call")
	case "handler-add", "handler-remove":
		return s.handler == (c == "handler-remove")
	case "method-add", "method-remove":
		return s.method == (c == "method-remove")
	}
	return s.has(sinkOf[c]) == strings.HasPrefix(c, "remove-")
}

// apply is the content after edit class c.
func (s lineageState) apply(c string) lineageState {
	switch c {
	case "if-operand":
		s.ifZero = !s.ifZero
	case "insert-call", "remove-call":
		s.call = c == "insert-call"
	case "handler-add", "handler-remove":
		s.handler = c == "handler-add"
	case "method-add", "method-remove":
		s.method = c == "method-add"
	default:
		lines := slices.DeleteFunc(strings.Split(s.stmts, "\n"), func(l string) bool { return l == "" || l == sinkOf[c] })
		if strings.HasPrefix(c, "insert-") {
			lines = append(lines, sinkOf[c])
		}
		s.stmts = strings.Join(lines, "\n")
	}
	return s
}

func (s lineageState) text() []byte {
	ed := corpus.StageDemoEdit{WithCall: s.call, ExtraHandler: s.handler, ExtraMethod: s.method, ExtraStmt: s.stmts}
	if s.ifZero {
		ed.IfLine = "if c == int 0"
	}
	return corpus.StageDemoText(serveGroups, ed)
}

// revision is one submission. The leading comment numbers it, so every
// revision has a new digest even when its content recurs.
type revision struct {
	n       int
	class   string
	planned tier
	state   lineageState
	raw     []byte
	digest  string
}

func newRevision(n int, c editClass, st lineageState) revision {
	raw := append([]byte(fmt.Sprintf("# revision %d\n", n)), st.text()...)
	return revision{n: n, class: c.name, planned: c.tier, state: st, raw: raw, digest: batch.RawDigest(raw)}
}

// schedule yields the seeded revision stream: revision 0 is the cold
// baseline, then blocks of one revision per catalog class.
type schedule struct {
	rng   *rand.Rand
	state lineageState
	n     int
	block []editClass
}

func newSchedule(seed int64) *schedule { return &schedule{rng: rand.New(rand.NewSource(seed))} }

// newBlock orders one block: a seeded permutation of the catalog, drawn
// again until every edit in it applies to the content it finds.
func (s *schedule) newBlock() []editClass {
	for {
		block := make([]editClass, len(editClasses))
		for i, j := range s.rng.Perm(len(editClasses)) {
			block[i] = editClasses[j]
		}
		st, ok := s.state, true
		for _, c := range block {
			if ok = st.applies(c.name); !ok {
				break
			}
			st = st.apply(c.name)
		}
		if ok {
			return block
		}
	}
}

func (s *schedule) next() revision {
	if s.n == 0 {
		s.n++
		return newRevision(0, editClass{"baseline", cold}, s.state)
	}
	if len(s.block) == 0 {
		s.block = s.newBlock()
	}
	c := s.block[0]
	s.block = s.block[1:]
	s.state = s.state.apply(c.name)
	r := newRevision(s.n, c, s.state)
	s.n++
	return r
}

// serveOptions is the daemon's cold-path analysis config at default
// serve.Config knobs (every pool at GOMAXPROCS, the refuter at ≥2 for
// per-pair-pure verdicts).
func serveOptions() core.Options {
	n := runtime.GOMAXPROCS(0)
	return core.Options{
		Refuter:     symexec.Config{Jobs: max(2, n)},
		SHBG:        shbg.Options{Jobs: n},
		PTAJobs:     n,
		KeepPTAWarm: true,
	}
}

// references hashes the expected report of each of the first n
// revisions of the seed's schedule: a cold one-shot analysis of the
// revision's content rendered under its own digest. It runs untimed
// during set-up, one analysis per distinct content, and keeps only the
// hashes, so the timed phase neither renders nor holds a reference.
func references(seed int64, n int) ([][sha256.Size]byte, error) {
	byState := map[lineageState][]revision{}
	var order []lineageState
	sched := newSchedule(seed)
	for i := 0; i < n; i++ {
		rev := sched.next()
		rev.raw = nil
		if byState[rev.state] == nil {
			order = append(order, rev.state)
		}
		byState[rev.state] = append(byState[rev.state], rev)
	}
	opts := serveOptions()
	opts.KeepPTAWarm = false // rendering needs no re-solve handle
	out := make([][sha256.Size]byte, n)
	for _, st := range order {
		app, err := appfile.Read(bytes.NewReader(st.text()))
		if err != nil {
			return nil, err
		}
		res := core.Analyze(app, opts)
		for _, rev := range byState[st] {
			out[rev.n] = sha256.Sum256(serve.RenderReport(rev.digest, res))
		}
	}
	return out, nil
}

// daemon is an in-process `sierra serve` at its CLI defaults on loopback.
type daemon struct {
	srv  *serve.Server
	obs  *obs.Trace
	base string
	http *http.Client
}

func bootDaemon() (*daemon, error) {
	tr := obs.New("sierra-serve")
	s, err := serve.New(serve.Config{
		JobTimeout: 5 * time.Minute,
		Obs:        tr,
		Events:     eventlog.New(nil, eventlog.DefaultRingCap),
	})
	if err != nil {
		return nil, err
	}
	if err := s.Start("127.0.0.1:0"); err != nil {
		return nil, err
	}
	// One client, one connection: the closed loop.
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return &daemon{srv: s, obs: tr, base: "http://" + s.Addr(), http: client}, nil
}

func (d *daemon) stop() {
	d.srv.Drain()
	d.srv.Close()
	d.http.CloseIdleConnections()
}

// tierCounts reads the daemon's tier-1 and tier-2 apply counters; their
// deltas across an op name the tier its job took (neither = cold).
func (d *daemon) tierCounts() (int64, int64) {
	return d.obs.Counter("incremental.applies"), d.obs.Counter("incremental.stage_applies")
}

type jobStatus struct {
	JobID  string `json:"job_id"`
	Status string `json:"status"`
	Error  string `json:"error"`
}

// do sends one request on the client's connection and returns the body
// of a 2xx response.
func (d *daemon) do(method, path string, body []byte) ([]byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := d.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, raw)
	}
	return raw, nil
}

func (d *daemon) status(method, path string, body []byte) (jobStatus, error) {
	var st jobStatus
	raw, err := d.do(method, path, body)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

// roundTrip is one op: submit, poll until done, fetch the report.
func (d *daemon) roundTrip(tr *tracer, op, root int, rev revision) (doc []byte, polls int, err error) {
	s := tr.begin(op, root, "serve.submit")
	st, err := d.status(http.MethodPost, "/v1/apps", rev.raw)
	tr.end(s)
	if err != nil {
		return nil, 0, err
	}
	s = tr.begin(op, root, "serve.wait")
	for err == nil && st.Status != "done" {
		if st.Status == "failed" {
			err = fmt.Errorf("revision %d: job failed: %s", rev.n, st.Error)
			break
		}
		time.Sleep(servePoll)
		polls++
		st, err = d.status(http.MethodGet, "/v1/jobs/"+st.JobID, nil)
	}
	tr.end(s)
	if err != nil {
		return nil, polls, err
	}
	s = tr.begin(op, root, "serve.fetch")
	doc, err = d.do(http.MethodGet, "/v1/reports/"+rev.digest, nil)
	tr.end(s)
	return doc, polls, err
}

// replay is the traced run's in-process copy of the daemon's job body
// (serve's tier-1 → tier-2 → cold chain against one lineage baseline),
// each public call in its own span. Its report must equal the daemon's.
type replay struct {
	base *incremental.Baseline
}

// reset makes rev the replay's baseline with an untimed cold run.
func (r *replay) reset(rev revision) error {
	app, err := appfile.Read(bytes.NewReader(rev.raw))
	if err != nil {
		return err
	}
	fp := incremental.Compute(app)
	r.setBase(rev, app, fp, core.Analyze(app, serveOptions()))
	return nil
}

// setBase makes a cold result the lineage baseline, as serve's pool does.
func (r *replay) setBase(rev revision, app *apk.App, fp *incremental.Fingerprint, res *core.Result) {
	r.base = &incremental.Baseline{Name: app.Name, Digest: rev.digest, FP: fp, App: app, Res: res, Warm: res.PTAWarm}
}

// replayStep is one revision through the replay.
type replayStep struct {
	doc              []byte
	landed           tier
	rerefuted, total int
	coldRes          *core.Result // the cold run's result, if it landed cold
}

func (r *replay) step(tr *tracer, op, parent int, rev revision) (replayStep, error) {
	var out replayStep
	app, err := parseApp(tr, op, parent, rev.raw)
	if err != nil {
		return out, err
	}
	s := tr.begin(op, parent, "incremental.fingerprint")
	fp := incremental.Compute(app)
	tr.end(s)
	opts := serveOptions()
	base := r.base

	s = tr.begin(op, parent, "incremental.apply")
	st1, ok := base.Apply(app, fp, rev.digest, opts.Refuter, nil)
	tr.end(s)
	switch {
	case ok:
		out.landed, out.rerefuted, out.total = tier1, st1.PairsRerefuted, st1.PairsTotal
	case !base.Poisoned:
		s = tr.begin(op, parent, "incremental.apply_stages")
		st2, ok2 := base.ApplyStages(app, fp, rev.digest, opts.Refuter, opts.SHBG, nil)
		tr.end(s)
		ok = ok2
		out.landed, out.rerefuted, out.total = tier2, st2.PairsRerefuted, st2.PairsTotal
	}
	if !ok {
		out.landed, out.rerefuted, out.total = cold, 0, 0
		if base.Poisoned {
			if app, err = parseApp(tr, op, parent, rev.raw); err != nil {
				return out, err
			}
			s = tr.begin(op, parent, "incremental.fingerprint")
			fp = incremental.Compute(app)
			tr.end(s)
		}
		s = tr.begin(op, parent, "incremental.cold")
		out.coldRes = tracedAnalyze(tr, op, s, app, opts)
		tr.end(s)
		r.setBase(rev, app, fp, out.coldRes)
	}
	s = tr.begin(op, parent, "rank")
	out.doc = serve.RenderReport(rev.digest, r.base.Res)
	tr.end(s)
	return out, nil
}

// runServeEdit drives one client's closed loop against an in-process
// daemon through serveBlocksPerSecond × cfg.seconds schedule blocks.
func runServeEdit(cfg runConfig) (result, error) {
	blocks := int(cfg.seconds.Seconds()*serveBlocksPerSecond + 0.5)
	if cfg.trace && blocks < 2 {
		blocks = 2
	}
	want, err := references(cfg.seed, 1+blocks*len(editClasses))
	if err != nil {
		return result{}, err
	}
	matches := func(rev revision, doc []byte) bool { return sha256.Sum256(doc) == want[rev.n] }

	m := e2e{}
	sched := newSchedule(cfg.seed)
	rev0 := sched.next()
	var d *daemon
	for i := 0; i < serveSetupReps; i++ {
		if d != nil {
			d.stop()
		}
		runtime.GC()
		t0 := time.Now()
		if d, err = bootDaemon(); err != nil {
			return result{}, err
		}
		doc, _, err := d.roundTrip(nil, -1, -1, rev0)
		if err != nil {
			return result{}, err
		}
		m.setups = append(m.setups, time.Since(t0).Seconds())
		if !matches(rev0, doc) {
			return result{}, fmt.Errorf("cold baseline report differs from the one-shot reference")
		}
	}
	defer d.stop()

	var (
		tr       *tracer
		rp       replay
		prev     = rev0
		plainLat []float64 // untraced-block op latencies (traced run)
		rpcLat   []float64 // traced-block round-trip latencies
		polls    int
		landed   = map[int]tier{} // traced op → tier
		counts   [3]int
		rereft   [2]int // Σ re-refuted, Σ total pairs over warm traced ops
		ef       effort // over the traced cold runs
		plain    phaseStats
		plainOps int
	)
	if cfg.trace {
		tr = newTracer()
	}
	ph := startPhase()
	windowFrom := 0 // first op of the current window
	for block := 0; block < blocks; block++ {
		traced := cfg.trace && block%2 == 1
		if traced {
			// Bring the replay's baseline to the daemon's current
			// revision, untimed, so its next step sees the same edit.
			if err := rp.reset(prev); err != nil {
				return result{}, err
			}
		}
		blockStart := readGoStats()
		// One schedule block per iteration; in a traced run, blocks
		// alternate untraced (plain round trips) and traced (spans plus
		// the replay).
		for range editClasses {
			rev := sched.next()
			m.attempted++
			a1, a2 := d.tierCounts()
			ptr := (*tracer)(nil)
			if traced {
				ptr = tr
			}
			op, root := ptr.newOp(fmt.Sprintf("op:revision %d", rev.n))
			t0 := time.Now()
			doc, n, err := d.roundTrip(ptr, op, root, rev)
			lat := since(t0)
			prev = rev
			if err != nil {
				ptr.end(root)
				m.failed++
				cfg.logf("%v", err)
				continue
			}
			m.latencies = append(m.latencies, lat)
			b1, b2 := d.tierCounts()
			got := cold
			switch {
			case b1 > a1:
				got = tier1
			case b2 > a2:
				got = tier2
			}
			bad := ""
			if got != rev.planned {
				bad = fmt.Sprintf("daemon took %s, planned %s", got, rev.planned)
			} else if !matches(rev, doc) {
				bad = "report differs from the one-shot reference"
			}
			if traced {
				rpcLat = append(rpcLat, lat)
				polls += n
				s := tr.begin(op, root, "replay")
				step, err := rp.step(tr, op, s, rev)
				tr.end(s)
				tr.end(root)
				switch {
				case err != nil:
					bad = err.Error()
				case step.landed != rev.planned:
					bad = fmt.Sprintf("replay took %s, planned %s", step.landed, rev.planned)
				case !bytes.Equal(step.doc, doc):
					bad = "replay report differs from the daemon's"
				}
				landed[op] = step.landed
				counts[step.landed]++
				if step.coldRes != nil {
					ef.add(step.coldRes)
				}
				if step.landed != cold {
					rereft[0] += step.rerefuted
					rereft[1] += step.total
				}
			} else if cfg.trace {
				plainLat = append(plainLat, lat)
			}
			if bad != "" {
				m.failed++
				cfg.logf("revision %d (%s, planned %s): %s", rev.n, rev.class, rev.planned, bad)
			}
		}
		if cfg.trace && !traced {
			plain.add(phaseStats{gc: readGoStats().since(blockStart)})
			plainOps += len(editClasses)
		}
		if (block+1)%serveWindowBlocks == 0 || block == blocks-1 {
			m.addWindow(len(m.latencies)-windowFrom, ph.stop())
			ph, windowFrom = markPhase(), len(m.latencies)
		}
	}
	if !cfg.trace {
		return m.result("serve-edit"), nil
	}

	lg, err := buildLedger(tr.spans, isLayer)
	if err != nil {
		return result{}, err
	}
	// Per-tier cost: the landing call's duration on ops that landed there.
	var tierMS [3]float64
	tierSpan := [3]string{"incremental.apply", "incremental.apply_stages", "incremental.cold"}
	for _, s := range tr.spans {
		if t, ok := landed[s.Op]; ok && s.Name == tierSpan[t] {
			tierMS[t] += ms(s.dur())
		}
	}
	ops := float64(lg.ops)
	extra := map[string]float64{
		"serve.polls_per_op":  float64(polls) / ops,
		"trace.overhead_frac": overhead(rpcLat, plainLat),
	}
	for t, name := range []string{"tier1", "tier2", "cold"} {
		extra["incremental."+name+"_frac"] = float64(counts[t]) / ops
		if counts[t] > 0 {
			extra["incremental."+name+"_ms"] = tierMS[t] / float64(counts[t])
		}
	}
	if rereft[1] > 0 {
		extra["incremental.rerefuted_frac"] = float64(rereft[0]) / float64(rereft[1])
	}
	return traceResult(cfg, "serve-edit", m, tr, layerReport(lg, ef, plain, plainOps, extra))
}
