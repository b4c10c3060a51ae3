// Metric exposition. Families is the registry's one typed snapshot: the
// admin endpoint serves it as JSON on /metrics.json, the fleet scraper
// decodes that body, and WriteText renders any family list — a worker's
// own or the fleet's merged one — in the Prometheus text format.

package obs

import (
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Family is one metric family: its declaration plus its series.
type Family struct {
	Name string `json:"name"`
	Help string `json:"help"`
	// Type is "counter", "gauge" or "histogram".
	Type string `json:"type"`
	// Labels names the labels every series carries, in order.
	Labels []string `json:"labels,omitempty"`
	Series []Series `json:"series"`
}

// Series is one labeled child of a family: a value, or a histogram when
// the family's type is "histogram".
type Series struct {
	// Values holds the label values, aligned with Family.Labels.
	Values []string `json:"values,omitempty"`
	Value  float64  `json:"value"`
	Hist   *Hist    `json:"hist,omitempty"`
}

// Hist is a fixed-bucket cumulative histogram at one instant.
type Hist struct {
	// Bounds are the finite upper bounds, ascending; an implicit +Inf
	// bucket follows.
	Bounds []float64 `json:"bounds"`
	// Counts are the cumulative bucket counts, len(Bounds)+1, the last
	// being the +Inf bucket and equal to Count.
	Counts []uint64 `json:"counts"`
	Sum    float64  `json:"sum"`
	Count  uint64   `json:"count"`
}

// Families returns every registered metric in registration order;
// labeled children are sorted by label value for stable output.
func (r *Registry) Families() []Family {
	if r == nil {
		return nil
	}
	metrics := r.snapshotMetrics()
	out := make([]Family, 0, len(metrics))
	for _, m := range metrics {
		f := Family{Name: m.name, Help: m.help, Type: m.kind.String()}
		switch m.kind {
		case kindCounter:
			f.Series = []Series{{Value: float64(m.counter.Value())}}
		case kindGauge:
			f.Series = []Series{{Value: float64(m.gauge.Value())}}
		case kindHistogram:
			h := m.histogram
			cum := h.snapshot()
			// Count is the +Inf bucket, not h.Count(): an Observe racing
			// the snapshot must not leave the two disagreeing.
			f.Series = []Series{{Hist: &Hist{Bounds: append([]float64(nil), h.bounds...), Counts: cum, Sum: h.Sum(), Count: cum[len(cum)-1]}}}
		case kindCounterVec:
			f.Labels, f.Series = []string{m.counterVec.label}, vecSeries(m.counterVec.Values())
		case kindGaugeVec:
			f.Labels, f.Series = []string{m.gaugeVec.label}, vecSeries(m.gaugeVec.Values())
		}
		out = append(out, f)
	}
	return out
}

// vecSeries turns a vec's children into series sorted by label value.
func vecSeries[V uint64 | int64](vals map[string]V) []Series {
	out := make([]Series, 0, len(vals))
	for k, v := range vals {
		out = append(out, Series{Values: []string{k}, Value: float64(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Values[0] < out[j].Values[0] })
	return out
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return WriteText(w, r.Families())
}

// WriteText renders fams in the Prometheus text exposition format
// (version 0.0.4), families and series in slice order. Histogram series
// expand to _bucket (with a trailing le label), _sum and _count lines.
func WriteText(w io.Writer, fams []Family) error {
	var b strings.Builder
	for _, f := range fams {
		if f.Help != "" {
			b.WriteString("# HELP " + f.Name + " " + escapeHelp(f.Help) + "\n")
		}
		b.WriteString("# TYPE " + f.Name + " " + f.Type + "\n")
		for _, s := range f.Series {
			h := s.Hist
			if h == nil {
				writeLine(&b, f.Name, f.Labels, s.Values, formatValue(s.Value))
				continue
			}
			labels := append(append([]string(nil), f.Labels...), "le")
			values := append(append([]string(nil), s.Values...), "")
			for i, c := range h.Counts {
				values[len(values)-1] = "+Inf"
				if i < len(h.Bounds) {
					values[len(values)-1] = formatFloat(h.Bounds[i])
				}
				writeLine(&b, f.Name+"_bucket", labels, values, strconv.FormatUint(c, 10))
			}
			writeLine(&b, f.Name+"_sum", f.Labels, s.Values, formatFloat(h.Sum))
			writeLine(&b, f.Name+"_count", f.Labels, s.Values, strconv.FormatUint(h.Count, 10))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeLine appends one series line: the name, the label set when there
// is one, and the value.
func writeLine(b *strings.Builder, name string, labels, values []string, value string) {
	b.WriteString(name)
	for i, l := range labels {
		if i == 0 {
			b.WriteByte('{')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(l + "=" + strconv.Quote(values[i]))
	}
	if len(labels) > 0 {
		b.WriteByte('}')
	}
	b.WriteString(" " + value + "\n")
}

// formatValue prints a counter or gauge value: integral values below
// 2^53 as integers (a registry's uint64 and int64 values), anything else
// as formatFloat does.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return formatFloat(v)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes newlines and backslashes per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
