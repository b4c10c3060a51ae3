package main

import (
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// perLayer is the traced run (-trace 1) of workload w. It reports every
// per-layer metric:
//
//   - three kinds of live rounds of w — through the middlebox untraced,
//     with no middlebox, and through the middlebox with an in-memory
//     obs.Sink on all three parties — give the middlebox.*, transport.direct_*,
//     obs.* and insitu.* numbers;
//   - the replay gives the trace.* budget, reconciled against the untraced
//     rounds' CPU per byte;
//   - the layer measurements of layers.go do not depend on w.
//
// d is split between them; fixed-work rounds mean each part runs at least
// one whole round however small its share.
func perLayer(w *spec, seed int64, d time.Duration, outDir string, log io.Writer) (*runOutcome, error) {
	o := &runOutcome{metrics: map[string]value{}, diag: map[string]value{}}
	p := w.plan(seed)

	// The direct rounds go first: a process's first round also pays for
	// mapping its heap, and that matters least where the middlebox is absent.
	direct, err := measureRounds(w, p, d/4, 1, true, false)
	if err != nil {
		return nil, err
	}
	via, err := measureRounds(w, p, d/4, 1, false, false)
	if err != nil {
		return nil, err
	}
	traced, err := measureRounds(w, p, d/4, 1, false, true)
	if err != nil {
		return nil, err
	}
	for _, rs := range [][]*round{via, direct, traced} {
		a := aggregate(rs)
		o.attempted += a.attempted
		o.failed += a.failed
		o.failures = append(o.failures, a.failures...)
	}
	checkRounds(o, w, p, append(append([]*round(nil), via...), traced...))

	v, dr, tr := aggregate(via), aggregate(direct), aggregate(traced)
	viaP50 := percentile(sortedCopy(v.opLatUS), 50)
	directP50 := percentile(sortedCopy(dr.opLatUS), 50)
	cpuPerByte := float64(v.cpu) / float64(v.delivered)
	o.set("transport.direct_goodput_mbps", median(dr.roundMbps))
	o.set("transport.direct_op_p50_us", directP50)
	o.set("transport.socket_writes_per_app_write", float64(v.clientSockWrites)/float64(v.clientWrites))
	o.set("middlebox.goodput_ratio", median(v.roundMbps)/median(dr.roundMbps))
	o.set("middlebox.added_op_p50_us", viaP50-directP50)
	r0 := via[0]
	o.set("middlebox.new_ms", msOf(r0.newMB))
	o.set("middlebox.detect_shards", float64(r0.shards))
	o.set("middlebox.tokens_scanned", float64(r0.stats.TokensScanned))
	o.set("middlebox.bytes_forwarded", float64(r0.stats.BytesForwarded))
	o.set("middlebox.alerts", float64(r0.stats.Alerts))
	o.set("middlebox.unscanned_bytes", float64(r0.stats.UnscannedBytes))
	o.set("middlebox.conn_errors", float64(r0.stats.ConnErrors))
	o.set("ruleprep.wire_bytes_per_fragment", float64(r0.dialWire)/float64(r0.dials)/6)
	o.set("run.cpu_ns_per_byte", cpuPerByte)
	o.set("run.heap_growth_bytes_per_byte", v.heapGrowth/float64(v.delivered))
	o.set("run.gc_cpu_ns_per_byte", float64(v.gcCPU)/float64(v.delivered))
	o.set("obs.trace_overhead_ratio", 1-median(tr.roundMbps)/median(v.roundMbps))
	insitu(o, traced)

	rp, err := replay(w, p, d/4, outDir)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	var path int64
	for l := 0; l < numPathLayers; l++ {
		path += rp.self[l]
		o.set("trace."+layerNames[l]+"_self_ns_per_byte", float64(rp.self[l])/float64(rp.bytes))
	}
	o.set("trace.detect.scan.r3000_self_ns_per_byte", float64(rp.self[layerScan3000])/float64(rp.bytes))
	o.set("trace.glue_self_ns_per_byte", float64(rp.self[layerRecord])/float64(rp.bytes))
	pathPerByte := float64(path) / float64(rp.bytes)
	o.set("trace.coverage_ratio", pathPerByte/cpuPerByte)
	o.set("trace.unattributed_ns_per_byte", cpuPerByte-pathPerByte)
	o.note("replay_records", "count", float64(rp.records))
	o.note("replay_bytes", "B", float64(rp.bytes))
	o.note("replay_events", "count", float64(rp.events))

	in, err := newLayerInputs(seed, layerTextBytes)
	if err != nil {
		return nil, err
	}
	measureTokenize(o, in)
	measureDPIEnc(o, in)
	measureCore(o, in)
	measureCircuit(o)
	for _, f := range []func(*runOutcome, *layerInputs) error{
		measureTokenWire, measureRecordPath, measureDirectConn, measureDetect, measureSetupLayers,
	} {
		if err := f(o, in); err != nil {
			return nil, err
		}
	}
	for _, m := range perLayerMetrics {
		if _, ok := o.metrics[m.Name]; !ok {
			o.failf("per-layer metric %s was not measured", m.Name)
		}
	}
	fmt.Fprintf(log, "# %s traced: %d+%d+%d live rounds (via middlebox, direct, traced), %d records replayed, spans in %s\n",
		w.name, len(via), len(direct), len(traced), rp.records, outDir)
	return o, nil
}

// insitu sums the program's own spans of the traced rounds, as a
// cross-check on the replay: tokenize and encrypt from the endpoints'
// sender pipelines, scan and the §3.3 sub-spans from the middlebox and
// the endpoints' rule preparation.
func insitu(o *runOutcome, rounds []*round) {
	var dur = map[string]int64{}
	var tokenizedBytes int64
	var dials int64
	for _, r := range rounds {
		dials += r.dials
		for _, sink := range []*obs.CollectSink{&r.sinks.client, &r.sinks.server, &r.sinks.mb} {
			for _, sp := range sink.Spans() {
				dur[sp.Name] += sp.Dur
				if sp.Name == obs.SpanTokenize {
					tokenizedBytes += int64(sp.Bytes)
				}
			}
		}
	}
	perByte := func(name string) float64 {
		if tokenizedBytes == 0 {
			return 0
		}
		return float64(dur[name]) / float64(tokenizedBytes)
	}
	o.set("insitu.tokenize_ns_per_byte", perByte(obs.SpanTokenize))
	o.set("insitu.encrypt_ns_per_byte", perByte(obs.SpanEncrypt))
	o.set("insitu.scan_ns_per_byte", perByte(obs.SpanScan))
	perDial := func(name string) float64 { return float64(dur[name]) / 1e6 / float64(dials) }
	o.set("insitu.prep_garble_ms", perDial(obs.SpanPrepGarble))
	o.set("insitu.prep_ot_ext_ms", perDial(obs.SpanPrepOTExt))
	o.set("insitu.prep_rule_enc_ms", perDial(obs.SpanPrepRuleEnc))
}
