package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// planDigest hashes what a plan makes the connections write and counts the
// planted rule keywords. Binary scripts cycle one 16 MiB buffer, so their
// first 1100 records cover every distinct byte.
func planDigest(p *plan) (sum [32]byte, hits int) {
	h := sha256.New()
	for _, sc := range p.scripts {
		for i, w := range sc {
			if w.binary && i >= 1100 {
				continue
			}
			h.Write(w.data)
			if !w.binary {
				for _, kw := range ruleKeywords {
					hits += bytes.Count(w.data, []byte(kw))
				}
			}
		}
	}
	copy(sum[:], h.Sum(nil))
	return sum, hits
}

func TestPlansAreSeeded(t *testing.T) {
	wantHits := map[string]int{
		"bulk_text":      2 * 15, // one keyword per MiB of 15 MiB, two connections
		"bulk_binary":    0,
		"bulk_window_p3": 2 * 11, // one per 256 KiB of 2880 KiB
		"rr_small":       2 * 8,  // one per 1000 of 8500 requests
		"short_flows":    5,      // one per flow, warm-up flow included
	}
	for _, w := range workloads {
		a, hitsA := planDigest(w.gen(7, 2))
		b, hitsB := planDigest(w.gen(7, 2))
		c, _ := planDigest(w.gen(8, 2))
		if a != b || hitsA != hitsB {
			t.Errorf("%s: the same seed gave different payloads", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same payload", w.name)
		}
		if hitsA != wantHits[w.name] {
			t.Errorf("%s: %d planted keywords, want %d", w.name, hitsA, wantHits[w.name])
		}
	}
}

func TestCountMetricsRepeatExactly(t *testing.T) {
	counts := func() map[string]value {
		o := &runOutcome{metrics: map[string]value{}, diag: map[string]value{}}
		in, err := newLayerInputs(3, 16*recordBytes)
		if err != nil {
			t.Fatal(err)
		}
		measureTokenize(o, in)
		measureCircuit(o)
		if err := measureTokenWire(o, in); err != nil {
			t.Fatal(err)
		}
		if o.failed != 0 {
			t.Fatalf("failures: %v", o.failures)
		}
		return o.metrics
	}
	a, b := counts(), counts()
	for _, name := range []string{
		"tokenize.delim_tokens_per_byte", "tokenize.window_tokens_per_byte",
		"transport.wire_bytes_per_token.p2", "transport.wire_bytes_per_token.p3",
		"circuit.f_gates", "circuit.f_and_gates",
	} {
		if a[name].Value == 0 || a[name] != b[name] {
			t.Errorf("%s: %v then %v, want equal and non-zero", name, a[name], b[name])
		}
	}
	if got := a["transport.wire_bytes_per_token.p2"].Value; got != 13 {
		t.Errorf("Protocol II token on the wire: %v bytes, want 13", got)
	}
	if got := a["transport.wire_bytes_per_token.p3"].Value; got != 29 {
		t.Errorf("Protocol III token on the wire: %v bytes, want 29", got)
	}
}

// TestLiveRoundMatchesOracle runs one tiny real round — a middlebox, rule
// preparation on both legs, one client — and checks the middlebox's
// counters against the offline pass and that every end-to-end metric is
// derived. It asserts counts only, never a time.
func TestLiveRoundMatchesOracle(t *testing.T) {
	w := findWorkload("rr_small")
	p := genRR(5, 1, 256, 40, 4, 10)
	r, err := runRound(w.stack, p, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	o := &runOutcome{metrics: map[string]value{}, diag: map[string]value{}}
	o.fillEndToEnd(w, p, []*round{r})
	if o.failed != 0 {
		t.Fatalf("failed operations: %v", o.failures)
	}
	if got := len(r.opLatUS); got != 40 {
		t.Errorf("%d round trips timed, want 40", got)
	}
	if want := int64(40 * 2 * 256); r.delivered != want {
		t.Errorf("delivered %d payload bytes, want %d", r.delivered, want)
	}
	if r.primaryAlerts == 0 {
		t.Error("planted keywords raised no alert")
	}
	for _, m := range endToEndMetrics {
		if v, ok := o.metrics[m.Name]; !ok || v.Value <= 0 || v.Unit != m.Unit {
			t.Errorf("end-to-end metric %s: got %+v", m.Name, v)
		}
	}
	if len(o.metrics) != len(endToEndMetrics) {
		t.Errorf("%d metrics reported, the table has %d", len(o.metrics), len(endToEndMetrics))
	}

	exp1, err := expect(w.stack, p)
	if err != nil {
		t.Fatal(err)
	}
	exp2, _ := expect(w.stack, p)
	if exp1 != exp2 {
		t.Errorf("offline oracle is not deterministic: %+v then %+v", exp1, exp2)
	}
}

func TestPercentiles(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{100000, 99.9}, {10000, 99.9}, {9999, 99}, {1000, 99}, {999, 95}, {200, 95}, {199, 90}, {100, 90}, {99, 75}, {40, 75}, {39, 50}, {24, 50}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(xs, 90); got != 9 {
		t.Errorf("p90 of 1..10 = %v, want 9", got)
	}
	if got := percentile(xs, 50); got != 5 {
		t.Errorf("p50 of 1..10 = %v, want 5", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if q1, q2, q3 := quartiles(xs); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread of 1..10 = %v, want 1", got)
	}
}

// TestReadmeTables checks that README.md carries the tables as the program
// renders them, so its names, units, bounds and mappings cannot drift.
func TestReadmeTables(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(readme), "<!-- tables:begin -->\n")
	section, _, ok2 := strings.Cut(rest, "<!-- tables:end -->")
	if !ok || !ok2 {
		t.Fatal("README.md has no tables:begin / tables:end markers")
	}
	if section != markdownTables() {
		t.Error("README.md tables differ from `-tables`; paste its output between the markers")
	}
}

// TestBenchmarkJSON checks the contract file: it is exactly what the
// program's tables render, and it is inside the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	file, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, want) {
		t.Error("BENCHMARK.json differs from the program's tables; regenerate it with -write-spec")
	}
	if len(file) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(file))
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(file, &doc); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet or length", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(doc.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range doc.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is not in the program", w.Name)
		}
	}
	if n := len(doc.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(doc.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	setup := false
	for _, m := range doc.EndToEnd {
		name(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end must hold setup_s with unit s, better lower")
	}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q is outside the contract's alphabet or length", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
	for _, m := range doc.PerLayer {
		name(m.Name)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	// The layer names of the replay's trace.* metrics come from one table.
	for l := 0; l < numPathLayers; l++ {
		if !seen["trace."+layerNames[l]+"_self_ns_per_byte"] {
			t.Errorf("replay layer %s has no per-layer metric", layerNames[l])
		}
	}
}
