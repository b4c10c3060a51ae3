// The aggregated admin mux: the fleet's single pane of glass.
//
//	/cluster/metrics   merged exposition — every worker family re-emitted
//	                   with a worker label, plus a worker="fleet" rollup
//	                   series per family (pointwise sum), plus the
//	                   aggregator's own registry, all through obs.WriteText
//	/cluster/workers   health JSON: per-worker rows + SLO verdicts
//	/cluster/trace?id= cross-worker trace assembly: pulls the matching
//	                   flight-recorder spans from every worker's /debug/
//	                   endpoints and feeds them through obs.AssembleSpans
//
// The rollup contract the fleet e2e pins: for every counter/gauge
// family the worker="fleet" series equals the exact sum of the
// per-worker series (integer totals well inside float64's exact range),
// so /cluster/metrics totals match the sum of per-worker
// middlebox.Stats() to the digit.

package agg

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strings"

	"repro/internal/obs"
)

// Mount adds the /cluster/* views to mux (typically obs.AdminMux of the
// scraper's own registry, so /metrics serves the aggregator's
// self-metrics alongside).
func (s *Scraper) Mount(mux *http.ServeMux) {
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		//lint:ignore unchecked-err a failed scrape write means the client went away; nothing to do
		s.WriteClusterMetrics(w)
	})
	mux.HandleFunc("/cluster/workers", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//lint:ignore unchecked-err a failed health-dump write means the client went away; nothing to do
		enc.Encode(s.Check())
	})
	mux.HandleFunc("/cluster/trace", func(w http.ResponseWriter, req *http.Request) {
		id := req.URL.Query().Get("id")
		if id == "" {
			http.Error(w, "missing id parameter (use /cluster/trace?id=<32-hex trace ID>)", http.StatusBadRequest)
			return
		}
		if _, err := obs.ParseTraceID(id); err != nil {
			http.Error(w, "bad id parameter: "+err.Error(), http.StatusBadRequest)
			return
		}
		tr, err := s.Trace(id)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if tr == nil {
			http.Error(w, "no live flow records trace "+id+" on any worker", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		//lint:ignore unchecked-err a failed trace-dump write means the client went away; nothing to do
		enc.Encode(tr)
	})
}

// Mux returns a fresh admin mux for the aggregator: obs.AdminMux over
// the scraper's metrics registry (when configured) plus the /cluster/*
// views — what cmd/bbfleet serves behind -admin.
func (s *Scraper) Mux() *http.ServeMux {
	mux := obs.AdminMux(s.cfg.Metrics)
	s.Mount(mux)
	return mux
}

// WriteClusterMetrics renders the merged exposition: every worker family
// (union, first-seen order) with a leading worker label on each series
// and a worker="fleet" rollup after the per-worker series, then the
// aggregator's own registry minus any family already emitted
// (blindbox_build_info is on both sides; the worker-labeled series win).
func (s *Scraper) WriteClusterMetrics(w io.Writer) error {
	s.EvaluateSLOs() // refresh blindbox_fleet_slo_up before rendering

	names, snaps := s.latest()
	fams := mergeFamilies(names, snaps)
	emitted := make(map[string]bool, len(fams))
	for _, f := range fams {
		emitted[f.Name] = true
	}
	for _, f := range s.cfg.Metrics.Families() {
		if !emitted[f.Name] {
			fams = append(fams, f)
		}
	}
	return obs.WriteText(w, fams)
}

// merged is one family being merged across workers.
type merged struct {
	out   obs.Family  // the rendered family: worker label first
	first *obs.Family // the first worker's declaration, which later workers must match
	// rollups are the fleet series, keyed by label values, in first-seen
	// order.
	rollups map[string]*rollup
	order   []*rollup
}

// rollup is one worker="fleet" series: the sum over workers of the
// series with these label values. A histogram whose bounds differ across
// workers has no sum; bad drops it.
type rollup struct {
	values []string
	value  float64
	hist   *obs.Hist
	bad    bool
}

// mergeFamilies re-labels every worker's series and appends the fleet
// rollups. A worker whose family has a different type or label set from
// the first worker's contributes no series to it. A series that already
// carries its own worker label (blindbox_worker_info) keeps it under the
// federation convention's exported_ prefix, so the scrape-assigned name
// and the worker's self-reported name stay side by side.
func mergeFamilies(names []string, snaps map[string]*Snapshot) []obs.Family {
	var order []*merged
	byName := map[string]*merged{}
	for _, worker := range names {
		for i := range snaps[worker].Families {
			f := &snaps[worker].Families[i]
			m := byName[f.Name]
			if m == nil {
				labels := []string{"worker"}
				for _, l := range f.Labels {
					if l == "worker" {
						l = "exported_worker"
					}
					labels = append(labels, l)
				}
				m = &merged{
					out:     obs.Family{Name: f.Name, Help: f.Help, Type: f.Type, Labels: labels},
					first:   f,
					rollups: map[string]*rollup{},
				}
				byName[f.Name] = m
				order = append(order, m)
			} else if f.Type != m.first.Type || !slices.Equal(f.Labels, m.first.Labels) {
				continue
			}
			for _, ser := range f.Series {
				m.out.Series = append(m.out.Series, obs.Series{
					Values: append([]string{worker}, ser.Values...), Value: ser.Value, Hist: ser.Hist,
				})
				m.add(ser)
			}
		}
	}
	out := make([]obs.Family, 0, len(order))
	for _, m := range order {
		for _, r := range m.order {
			if !r.bad {
				m.out.Series = append(m.out.Series, obs.Series{
					Values: append([]string{FleetLabel}, r.values...), Value: r.value, Hist: r.hist,
				})
			}
		}
		out = append(out, m.out)
	}
	return out
}

// add sums one worker series into its rollup, seeding a new rollup with
// the series itself.
func (m *merged) add(ser obs.Series) {
	key := fmt.Sprintf("%q", ser.Values)
	r := m.rollups[key]
	if r == nil {
		m.rollups[key] = &rollup{values: ser.Values, value: ser.Value, hist: ser.Hist}
		m.order = append(m.order, m.rollups[key])
		return
	}
	switch {
	case r.bad:
	case r.hist == nil:
		r.value += ser.Value
	default:
		h, err := mergeHist(r.hist, ser.Hist)
		r.hist, r.bad = h, err != nil
	}
}

// TraceNode is one span of an assembled cross-worker trace, flattened
// in preorder (Depth 0 is the root) — depth-encoding keeps the JSON
// free of recursive types while preserving the tree shape, and a
// preorder flattening of a tree is acyclic by construction.
type TraceNode struct {
	// Depth is the node's distance from the root.
	Depth int `json:"depth"`
	// Span is the raw record.
	Span obs.Span `json:"span"`
	// StartNs and EndNs are the clock-aligned interval bounds.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// SelfCritNs is the critical-path time attributed to this span.
	SelfCritNs int64 `json:"self_crit_ns"`
}

// TraceResponse is the /cluster/trace?id= body: one assembled flow.
type TraceResponse struct {
	// Trace is the 32-hex trace ID.
	Trace string `json:"trace"`
	// Workers lists the workers whose pull contributed spans.
	Workers []string `json:"workers"`
	// PullErrors lists workers whose pull failed (best-effort assembly
	// continues over the rest).
	PullErrors []string `json:"pull_errors,omitempty"`
	// Spans counts the assembled spans; Orphans counts spans not
	// reachable from the root (0 for a well-formed trace).
	Spans   int `json:"spans"`
	Orphans int `json:"orphans"`
	// Partial marks a synthesized root (sampled-out rooting party).
	Partial bool `json:"partial,omitempty"`
	// WallNs and CritNs are the flow wall-clock and attributed
	// critical-path total.
	WallNs int64 `json:"wall_ns"`
	CritNs int64 `json:"crit_ns"`
	// Offsets maps each party to its estimated clock offset.
	Offsets map[string]int64 `json:"offsets,omitempty"`
	// Stages aggregates spans by name with critical-path attribution.
	Stages []obs.StageStat `json:"stages"`
	// Tree is the span tree in preorder.
	Tree []TraceNode `json:"tree"`
}

// Trace pulls trace id's live flight-recorder spans from every worker
// and assembles them into one cross-worker tree. (nil, nil) when no
// worker holds spans for the trace; an error only when every pull
// failed.
func (s *Scraper) Trace(id string) (*TraceResponse, error) {
	var spans []obs.Span
	var contributed, failed []string
	for _, w := range s.workers {
		got, err := PullSpans(s.client, w.url, id)
		if err != nil {
			failed = append(failed, fmt.Sprintf("%s: %v", w.name, err))
			continue
		}
		if len(got) > 0 {
			contributed = append(contributed, w.name)
			spans = append(spans, got...)
		}
	}
	if len(spans) == 0 {
		if len(failed) == len(s.workers) && len(failed) > 0 {
			return nil, fmt.Errorf("agg: every span pull failed: %s", strings.Join(failed, "; "))
		}
		return nil, nil
	}
	flows, _, err := obs.AssembleSpans(spans)
	if err != nil {
		return nil, fmt.Errorf("agg: assembling trace %s: %w", id, err)
	}
	if len(flows) == 0 {
		return nil, nil
	}
	ft := flows[0]
	resp := &TraceResponse{
		Trace:      ft.Trace,
		Workers:    contributed,
		PullErrors: failed,
		Spans:      len(spans),
		Orphans:    len(ft.Orphans),
		Partial:    ft.Partial,
		WallNs:     ft.WallNs,
		CritNs:     ft.CritNs,
		Offsets:    ft.Offsets,
		Stages:     ft.Stages(),
	}
	var walk func(n *obs.SpanNode, depth int)
	walk = func(n *obs.SpanNode, depth int) {
		resp.Tree = append(resp.Tree, TraceNode{
			Depth: depth, Span: n.Span,
			StartNs: n.Start, EndNs: n.End, SelfCritNs: n.SelfCritNs,
		})
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if ft.Root != nil {
		walk(ft.Root, 0)
	}
	sort.Strings(resp.Workers)
	return resp, nil
}
