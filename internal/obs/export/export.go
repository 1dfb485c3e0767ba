// Package export is the live exposition surface over internal/obs: a
// zero-dependency (stdlib-only) HTTP debug server behind the
// `-debug-addr` flag serving
//
//	/metrics   Prometheus text exposition of every counter, gauge, and
//	           histogram in the wired Trace, deterministically sorted
//	/progress  JSON batch progress (jobs done/total, apps/sec, cache
//	           hit rate, ETA) plus a live counter snapshot
//	/events    the tail of the flight-recorder ring as a JSON array
//	/healthz   liveness probe
//	/debug/pprof/...  the stdlib profiling handlers
//
// The server holds only pointers to live telemetry (Trace, Recorder) —
// every request re-snapshots, so what you curl mid-run is what the run
// has done so far, not a stale export.
package export

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"time"

	"sierra/internal/obs"
	"sierra/internal/obs/eventlog"
)

// Options wires the server's telemetry sources. Any of them may be nil;
// the corresponding endpoint then serves an empty-but-valid response.
type Options struct {
	// Trace backs /metrics and the counter snapshot half of /progress.
	Trace *obs.Trace
	// Events backs /events.
	Events *eventlog.Recorder
	// Progress, when non-nil, supplies the progress half of /progress
	// (typically batch.Tracker.Snapshot bound by the caller). The value
	// is marshaled verbatim, so callers own the schema.
	Progress func() any
}

// Server is a running debug server. Close shuts it down.
type Server struct {
	opts Options
	ln   net.Listener
	srv  *http.Server
}

// Handler returns the debug endpoints (/metrics, /progress, /events,
// /healthz, /debug/pprof/...) as a ServeMux bound to opts, for callers
// that host their own HTTP server — `sierra serve` mounts these next to
// its /v1 API so one port exposes both the service and its telemetry.
// Serve is a convenience wrapper that binds this handler to a listener.
func Handler(opts Options) *http.ServeMux {
	s := &Server{opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the debug server on addr (":0" picks a free port; use
// Addr to discover it). The listener is bound synchronously — a taken
// port fails here, not later — and requests are served on a background
// goroutine until Close.
func Serve(addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{opts: opts, ln: ln}
	s.srv = &http.Server{Handler: Handler(opts), ReadHeaderTimeout: 5 * time.Second}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound listen address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and releases the port.
func (s *Server) Close() error { return s.srv.Close() }

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WriteMetrics(w, s.opts.Trace.Snapshot())
}

// progressBody is /progress's envelope: the caller-owned progress
// value plus a live counter snapshot.
type progressBody struct {
	Progress any              `json:"progress,omitempty"`
	Counters map[string]int64 `json:"counters,omitempty"`
}

func (s *Server) handleProgress(w http.ResponseWriter, _ *http.Request) {
	body := progressBody{}
	if s.opts.Progress != nil {
		body.Progress = s.opts.Progress()
	}
	if snap := s.opts.Trace.Snapshot(); snap != nil {
		body.Counters = snap.Counters
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(body)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		n, _ = strconv.Atoi(q)
	}
	events := s.opts.Events.Tail(n)
	if events == nil {
		events = []eventlog.Event{}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(events)
}

// WriteMetrics renders a snapshot in the Prometheus text exposition
// format (version 0.0.4): counters as `sierra_<name>` counter families,
// gauges as gauge families, histograms as `_bucket`/`_sum`/`_count`
// triples over the shared obs bucket bounds. Families are emitted in
// sorted name order. Deterministic: two identical snapshots render
// byte-identically.
func WriteMetrics(w io.Writer, s *obs.Snapshot) {
	if s == nil {
		return
	}
	type family struct {
		name string
		emit func()
	}
	var fams []family
	for name, v := range s.Counters {
		name, v := name, v
		fams = append(fams, family{metricName(name), func() {
			m := metricName(name)
			fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", m, m, v)
		}})
	}
	for name, v := range s.Gauges {
		name, v := name, v
		fams = append(fams, family{metricName(name), func() {
			m := metricName(name)
			fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", m, m, formatFloat(v))
		}})
	}
	for name, h := range s.Histograms {
		name, h := name, h
		fams = append(fams, family{metricName(name), func() {
			m := metricName(name)
			fmt.Fprintf(w, "# TYPE %s histogram\n", m)
			cum := int64(0)
			for i, le := range s.HistogramLE {
				if i < len(h.Counts) {
					cum += h.Counts[i]
				}
				fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", m, formatFloat(le), cum)
			}
			fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", m, h.Count)
			fmt.Fprintf(w, "%s_sum %s\n", m, formatFloat(h.Sum))
			fmt.Fprintf(w, "%s_count %d\n", m, h.Count)
		}})
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.emit()
	}
}

// metricName mangles an obs name (dotted, may contain dashes) into a
// Prometheus metric name under the sierra_ namespace.
func metricName(name string) string {
	mangled := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			return r
		default:
			return '_'
		}
	}, name)
	return "sierra_" + mangled
}

// formatFloat renders a float the Prometheus way: integral values
// without an exponent or trailing zeros.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
