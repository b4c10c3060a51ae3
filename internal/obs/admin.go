// The admin HTTP endpoint: /metrics (Prometheus text), /metrics.json
// (the registry's Families, which the fleet scraper decodes), /healthz,
// net/http/pprof under /debug/pprof/, and — when a Recorder is mounted —
// the flight-recorder views /debug/flows and /debug/flightrecorder.
// cmd/bbmb and cmd/bbserver mount this behind their -admin flag; tests
// mount it on httptest servers.

package obs

import (
	"encoding/json"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
)

// AdminMux builds the admin endpoint for a registry. The pprof handlers
// are mounted explicitly (not via the net/http/pprof DefaultServeMux side
// effect), so the admin mux composes with any process-global handlers.
func AdminMux(r *Registry) *http.ServeMux {
	RegisterBuildInfo(r)
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//lint:ignore unchecked-err a failed scrape write means the client went away; nothing to do
		r.WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//lint:ignore unchecked-err a failed scrape write means the client went away; nothing to do
		enc.Encode(r.Families())
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lint:ignore unchecked-err a failed health-check write means the client went away; nothing to do
		w.Write([]byte("ok\n"))
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Mount adds the flight-recorder views to an admin mux:
//
//	/debug/flows                  JSON {live, recent}: the flow tables
//	/debug/flightrecorder?flow=N  on-demand ring dump of a live flow
//	/debug/spans                  JSONL rings of every live flow
//	/debug/trace?id=<32-hex>      JSONL rings of live flows on one trace
//
// All are read-only snapshots; dumping a flow does not flush or end it.
// The JSONL endpoints are the pull feed of agg.PullSpans (bbfleet's
// /cluster/trace and bbtrace -from-url): application/x-ndjson bodies in
// the JSONLSink schema, 200 with an empty body when nothing matches, 400
// on a malformed trace ID.
func (r *Recorder) Mount(mux *http.ServeMux) {
	writeSpans := func(w http.ResponseWriter, spans []Span) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		sink := NewJSONLSink(w)
		for _, sp := range spans {
			sink.Emit(sp)
		}
		//lint:ignore unchecked-err a failed debug-dump write means the client went away; nothing to do
		sink.Close()
	}
	mux.HandleFunc("/debug/spans", func(w http.ResponseWriter, _ *http.Request) {
		writeSpans(w, r.LiveSpans())
	})
	mux.HandleFunc("/debug/trace", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query().Get("id")
		if q == "" {
			http.Error(w, "missing id parameter (use /debug/trace?id=<32-hex trace ID>; see /debug/flows)", http.StatusBadRequest)
			return
		}
		if _, err := ParseTraceID(q); err != nil {
			http.Error(w, "bad id parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		writeSpans(w, r.SpansForTrace(q))
	})
	writeJSON := func(w http.ResponseWriter, v any) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//lint:ignore unchecked-err a failed debug-dump write means the client went away; nothing to do
		enc.Encode(v)
	}
	mux.HandleFunc("/debug/flows", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, struct {
			Live   []FlowSummary `json:"live"`
			Recent []FlowSummary `json:"recent"`
		}{r.Live(), r.Recent()})
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, req *http.Request) {
		q := req.URL.Query().Get("flow")
		if q == "" {
			http.Error(w, "missing flow parameter (use /debug/flightrecorder?flow=<id>; see /debug/flows)", http.StatusBadRequest)
			return
		}
		id, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "bad flow parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		f := r.lookup(id)
		if f == nil {
			http.Error(w, "no live flow "+q+" (ended flows appear in /debug/flows recent)", http.StatusNotFound)
			return
		}
		writeJSON(w, struct {
			Summary FlowSummary `json:"summary"`
			Spans   []Span      `json:"spans"`
		}{f.summary(DispositionLive, ""), f.Snapshot()})
	})
}

// ServeAdminMux listens on addr and serves mux (typically AdminMux plus
// Recorder.Mount) in a background goroutine, returning the bound listener
// (so callers can report the resolved port and close it on shutdown).
// Serve errors after a successful bind are logged, not fatal: losing the
// admin port must not take down the data path.
func ServeAdminMux(addr string, mux *http.ServeMux, log *slog.Logger) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			OrNop(log).Error("admin endpoint stopped", "addr", ln.Addr().String(), "err", err)
		}
	}()
	return ln, nil
}
