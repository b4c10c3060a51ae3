// The scraped form of a worker: its /metrics.json body (obs.Registry's
// Families) decoded, checked and indexed by family name. The body comes
// from outside the process, so Decode rejects the whole of it on any
// failure rather than half-ingesting it, and everything downstream —
// rates, health, SLOs and the /cluster/metrics merge — may assume a
// well-formed snapshot.

package agg

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/obs"
)

// maxBody bounds one decoded /metrics.json body.
const maxBody = 8 << 20

// Snapshot is one decoded /metrics.json body.
type Snapshot struct {
	// Families lists the worker's families in its registration order.
	Families []obs.Family

	byName map[string]*obs.Family
}

// Decode reads one /metrics.json body. It fails unless the body is a
// single JSON family list (within maxBody, with no unknown fields and
// nothing after it) whose every family passes checkFamily and appears
// once.
func Decode(r io.Reader) (*Snapshot, error) {
	dec := json.NewDecoder(io.LimitReader(r, maxBody))
	dec.DisallowUnknownFields()
	var fams []obs.Family
	if err := dec.Decode(&fams); err != nil {
		return nil, fmt.Errorf("agg: decoding families: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("agg: data after the family list")
	}
	s := &Snapshot{Families: fams, byName: make(map[string]*obs.Family, len(fams))}
	for i := range fams {
		f := &fams[i]
		if err := checkFamily(f); err != nil {
			return nil, fmt.Errorf("agg: family %q: %w", f.Name, err)
		}
		if _, dup := s.byName[f.Name]; dup {
			return nil, fmt.Errorf("agg: family %q appears twice", f.Name)
		}
		s.byName[f.Name] = f
	}
	return s, nil
}

// checkFamily holds one decoded family to what a registry produces: a
// valid name, a known type, distinct valid label names that the
// /cluster/metrics merge can prefix with worker (so none may be le or
// exported_worker), one value per label on every series, and a
// well-formed histogram on exactly the series of a histogram family.
func checkFamily(f *obs.Family) error {
	if !obs.ValidName(f.Name) {
		return errors.New("invalid name")
	}
	switch f.Type {
	case "counter", "gauge", "histogram":
	default:
		return fmt.Errorf("unknown type %q", f.Type)
	}
	seen := make(map[string]bool, len(f.Labels))
	for _, l := range f.Labels {
		if !obs.ValidName(l) || l == "le" || l == "exported_worker" || seen[l] {
			return fmt.Errorf("bad or repeated label name %q", l)
		}
		seen[l] = true
	}
	for _, s := range f.Series {
		if len(s.Values) != len(f.Labels) {
			return fmt.Errorf("series has %d label values for %d labels", len(s.Values), len(f.Labels))
		}
		if (s.Hist != nil) != (f.Type == "histogram") {
			return errors.New("histogram on a non-histogram series or missing from a histogram one")
		}
		if s.Hist != nil {
			if err := checkHist(s.Hist); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkHist checks one histogram's shape: len(Bounds)+1 counts,
// ascending bounds (JSON numbers are finite), cumulative counts, and a
// +Inf bucket equal to Count.
func checkHist(h *obs.Hist) error {
	if len(h.Counts) != len(h.Bounds)+1 {
		return fmt.Errorf("histogram has %d counts for %d bounds", len(h.Counts), len(h.Bounds))
	}
	for i := 1; i < len(h.Bounds); i++ {
		if !(h.Bounds[i] > h.Bounds[i-1]) {
			return errors.New("histogram bounds are not ascending")
		}
	}
	for i := 1; i < len(h.Counts); i++ {
		if h.Counts[i] < h.Counts[i-1] {
			return errors.New("histogram counts are not cumulative")
		}
	}
	if h.Counts[len(h.Counts)-1] != h.Count {
		return errors.New("histogram +Inf bucket differs from its count")
	}
	return nil
}

// Family returns the named family, nil when absent.
func (s *Snapshot) Family(name string) *obs.Family {
	if s == nil {
		return nil
	}
	return s.byName[name]
}

// Value returns an unlabeled counter or gauge's value.
func (s *Snapshot) Value(name string) (float64, bool) {
	f := s.Family(name)
	if f == nil || f.Type == "histogram" || len(f.Labels) != 0 || len(f.Series) == 0 {
		return 0, false
	}
	return f.Series[0].Value, true
}

// Labeled returns a one-label counter or gauge family's values keyed by
// label value (the inverse of CounterVec/GaugeVec.Values). Nil when the
// family is absent or has no series.
func (s *Snapshot) Labeled(name string) map[string]float64 {
	f := s.Family(name)
	if f == nil || f.Type == "histogram" || len(f.Labels) != 1 || len(f.Series) == 0 {
		return nil
	}
	out := make(map[string]float64, len(f.Series))
	for _, ser := range f.Series {
		out[ser.Values[0]] = ser.Value
	}
	return out
}

// Histogram returns an unlabeled histogram family's histogram.
func (s *Snapshot) Histogram(name string) (*obs.Hist, bool) {
	f := s.Family(name)
	if f == nil || f.Type != "histogram" || len(f.Labels) != 0 || len(f.Series) == 0 {
		return nil, false
	}
	return f.Series[0].Hist, true
}

// quantile estimates the q-quantile (q in [0,1]) the way Prometheus's
// histogram_quantile does: linear interpolation inside the first bucket
// whose cumulative count reaches q*Count, the highest finite bound when
// that bucket is +Inf. NaN for an empty histogram.
func quantile(h *obs.Hist, q float64) float64 {
	if h == nil || h.Count == 0 {
		return math.NaN()
	}
	q = math.Max(0, math.Min(1, q))
	rank := q * float64(h.Count)
	for i, cum := range h.Counts {
		if float64(cum) < rank {
			continue
		}
		if i >= len(h.Bounds) { // +Inf bucket
			if len(h.Bounds) == 0 {
				return math.NaN()
			}
			return h.Bounds[len(h.Bounds)-1]
		}
		lower, lowerCum := 0.0, uint64(0)
		if i > 0 {
			lower, lowerCum = h.Bounds[i-1], h.Counts[i-1]
		}
		width := float64(cum - lowerCum)
		if width == 0 {
			return h.Bounds[i]
		}
		return lower + (h.Bounds[i]-lower)*(rank-float64(lowerCum))/width
	}
	return h.Bounds[len(h.Bounds)-1]
}

// mergeHist returns the pointwise sum of a and b, leaving both
// unmodified. The bounds must match (every worker registers a catalog
// histogram with the same bounds); a mismatch is an error rather than a
// silent skew.
func mergeHist(a, b *obs.Hist) (*obs.Hist, error) {
	if len(a.Bounds) != len(b.Bounds) {
		return nil, fmt.Errorf("agg: histogram bound count mismatch: %d vs %d", len(a.Bounds), len(b.Bounds))
	}
	for i, bound := range a.Bounds {
		if bound != b.Bounds[i] {
			return nil, fmt.Errorf("agg: histogram bound mismatch at %d: %g vs %g", i, bound, b.Bounds[i])
		}
	}
	m := &obs.Hist{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts)), Sum: a.Sum + b.Sum, Count: a.Count + b.Count}
	for i := range m.Counts {
		m.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return m, nil
}
