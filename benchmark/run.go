package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// value is one reported number.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a single-workload run's standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// runOutcome is everything a single-workload run learned: the contract
// metrics, the diagnostics printed beside them, and the failures.
type runOutcome struct {
	metrics   map[string]value
	diag      map[string]value
	attempted int64
	failed    int64
	failures  []string
}

func (o *runOutcome) set(name string, v float64) {
	unit, ok := metricUnit(name)
	if !ok {
		o.failf("metric %s is reported but missing from the metric table", name)
	}
	o.metrics[name] = value{v, unit}
}

func (o *runOutcome) note(name, unit string, v float64) { o.diag[name] = value{v, unit} }

func (o *runOutcome) failf(format string, a ...any) {
	o.failed++
	if len(o.failures) < 16 {
		o.failures = append(o.failures, fmt.Sprintf(format, a...))
	}
}

// measureRounds repeats fixed-work rounds of p until the timed regions
// add up to at least d, and at least minRounds times. Work
// per round is fixed, not duration: a long text flow slows with stream
// position (DPIEnc state only grows), so a fixed duration would push
// faster code deeper into the slow region.
func measureRounds(w *spec, p *plan, d time.Duration, minRounds int, direct, traced bool) ([]*round, error) {
	var rounds []*round
	var timed time.Duration
	for timed < d || len(rounds) < minRounds {
		var tr *traceSinks
		if traced {
			tr = &traceSinks{}
		}
		r, err := runRound(w.stack, p, direct, tr)
		if err != nil {
			return rounds, err
		}
		rounds = append(rounds, r)
		timed += r.wall
	}
	return rounds, nil
}

// endToEnd runs workload w untraced for d and fills in every end-to-end
// metric plus the diagnostics.
func endToEnd(w *spec, seed int64, d time.Duration, log io.Writer) (*runOutcome, error) {
	o := &runOutcome{metrics: map[string]value{}, diag: map[string]value{}}
	p := w.plan(seed)
	rounds, err := measureRounds(w, p, d, 2, false, false)
	if err != nil {
		return nil, err
	}
	o.fillEndToEnd(w, p, rounds)
	for i, r := range rounds {
		fmt.Fprintf(log, "# round %d: setup %.3f s (dial %.3f s), timed %.3f s, cpu %.3f s, %.4g Mbit/s, %d ops, p50 %.6g us, p90 %.6g us\n",
			i, r.setup.Seconds(), r.setupDial.Seconds(), r.wall.Seconds(), r.cpu.Seconds(), r.mbps(), len(r.opLatUS),
			r.opPercentile(50), r.opPercentile(90))
	}
	return o, nil
}

// fillEndToEnd checks the rounds against the offline oracle and derives
// every end-to-end metric, and the diagnostics, from them.
func (o *runOutcome) fillEndToEnd(w *spec, p *plan, rounds []*round) {
	agg := aggregate(rounds)
	o.attempted, o.failed, o.failures = agg.attempted, agg.failed, agg.failures
	checkRounds(o, w, p, rounds)

	// Every round does the same fixed work, and what disturbs a round on a
	// shared host — a neighbour's memory traffic, a descheduled thread —
	// only ever slows it down. Each timing metric is therefore the best
	// value over the run's rounds: the least disturbed measurement of that
	// work. The medians are printed beside them as diagnostics.
	var p50s, p90s, cpus []float64
	for _, r := range rounds {
		p50s = append(p50s, r.opPercentile(50))
		p90s = append(p90s, r.opPercentile(90))
		cpus = append(cpus, float64(r.cpu)/float64(r.delivered))
	}
	o.set("goodput_mbps", best(agg.roundMbps, "higher"))
	o.set("op_p50_us", best(p50s, "lower"))
	o.set("op_p90_us", best(p90s, "lower"))
	o.set("cpu_ns_per_byte", best(cpus, "lower"))
	o.set("setup_s", p.genTime.Seconds()+best(agg.setupS, "lower"))
	o.set("wire_bytes_per_byte", float64(agg.clientWire)/float64(agg.clientPayload))
	o.set("allocs_per_record", float64(agg.mallocs)/float64(agg.appWrites))
	o.set("live_heap_mb", median(agg.heapEndMB))

	lat := sortedCopy(agg.opLatUS)
	o.note("rounds", "count", float64(len(rounds)))
	o.note("op_samples", "count", float64(len(lat)))
	o.note("goodput_median_mbps", "Mbit/s", median(agg.roundMbps))
	o.note("op_p50_pooled_us", "us", percentile(lat, 50))
	o.note("op_p90_pooled_us", "us", percentile(lat, 90))
	o.note("cpu_ns_per_byte_mean", "ns/B", float64(agg.cpu)/float64(agg.delivered))
	o.note("setup_median_s", "s", p.genTime.Seconds()+median(agg.setupS))
	o.note("goodput_mean_mbps", "Mbit/s", float64(agg.delivered*8)/agg.wall.Seconds()/1e6)
	o.note("ops_per_s", "1/s", float64(len(lat))/agg.wall.Seconds())
	if hp := highestPercentile(len(lat)); hp > 90 {
		o.note(fmt.Sprintf("op_p%v_us", hp), "us", percentile(lat, hp))
	}
	o.note("timed_s", "s", agg.wall.Seconds())
	o.note("payload_gen_s", "s", p.genTime.Seconds())
	o.note("setup_dial_s", "s", median(agg.dialS))
	o.note("heap_growth_bytes_per_byte", "B/B", agg.heapGrowth/float64(agg.delivered))
	o.note("gc_cpu_share", "ratio", float64(agg.gcCPU)/float64(agg.cpu))
	o.note("socket_writes_per_app_write", "count", float64(agg.clientSockWrites)/float64(agg.clientWrites))
	o.note("detect_shards", "count", float64(rounds[0].shards))
	if len(agg.ttfbMS) > 0 {
		o.note("ttfb_p50_ms", "ms", median(agg.ttfbMS))
		o.note("dial_p50_ms", "ms", median(agg.dialMS))
	}
}

func (r *round) mbps() float64 { return float64(r.delivered*8) / r.wall.Seconds() / 1e6 }

// opPercentile is the p-th percentile of the round's operation latencies.
func (r *round) opPercentile(p float64) float64 { return percentile(sortedCopy(r.opLatUS), p) }

// totals is the sum (or pool) of a run's rounds.
type totals struct {
	wall, cpu, gcCPU time.Duration
	delivered        int64
	clientPayload    int64
	clientWire       int64
	clientSockWrites int64
	clientWrites     int64
	appWrites        int64
	mallocs          uint64
	heapGrowth       float64
	roundMbps        []float64
	opLatUS          []float64
	ttfbMS, dialMS   []float64
	heapEndMB        []float64
	setupS, dialS    []float64
	attempted        int64
	failed           int64
	failures         []string
}

func aggregate(rounds []*round) *totals {
	t := &totals{}
	for _, r := range rounds {
		t.wall += r.wall
		t.cpu += r.cpu
		t.gcCPU += r.gcCPU
		t.delivered += r.delivered
		t.clientPayload += r.clientPayload
		t.clientWire += r.clientWire
		t.clientSockWrites += r.clientSockWrites
		t.clientWrites += r.clientWrites
		t.appWrites += r.appWrites
		t.mallocs += r.mallocs
		t.heapGrowth += float64(r.heapEnd) - float64(r.heapStart)
		t.roundMbps = append(t.roundMbps, r.mbps())
		t.opLatUS = append(t.opLatUS, r.opLatUS...)
		t.ttfbMS = append(t.ttfbMS, r.ttfbMS...)
		t.dialMS = append(t.dialMS, r.dialMS...)
		t.heapEndMB = append(t.heapEndMB, float64(r.heapEnd)/(1<<20))
		t.setupS = append(t.setupS, r.setup.Seconds())
		t.dialS = append(t.dialS, r.setupDial.Seconds())
		t.attempted += r.attempted
		t.failed += r.failed
		t.failures = append(t.failures, r.failures...)
	}
	return t
}

// printMetrics writes name, value and unit of every metric, sorted.
func printMetrics(w io.Writer, ms map[string]value, suffix string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%-44s %16.6g %s\n", n+suffix, ms[n].Value, ms[n].Unit)
	}
}
