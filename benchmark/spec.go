package main

import (
	"bytes"
	"encoding/json"
	"fmt"
)

// runSeconds is BENCHMARK.json's run_seconds: how long one run's timed
// regions add up to.
const runSeconds = 10

// metric is one row of the metric tables: what BENCHMARK.json declares
// and what the README documents.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
	// moves says, for a per-layer metric, which end-to-end metric it
	// should move on which workload; for an end-to-end metric, how it is
	// defined. Documentation only: it is not part of BENCHMARK.json.
	moves string
}

// endToEndMetrics are measured with tracing off, on every workload. Each
// is defined so that it is meaningful — and never zero — on all five.
var endToEndMetrics = []metric{
	{"goodput_mbps", "Mbit/s", "higher", 0.25, "payload bits delivered to the receiving applications per second of a round's timed region; best round"},
	{"op_p50_us", "us", "lower", 0.25, "median latency of the workload's operation — an object uploaded and acknowledged (bulk_*), a round trip (rr_small), dial start to last response byte (short_flows) — within a round; best round"},
	{"op_p90_us", "us", "lower", 0.25, "90th percentile of the same operation latency within a round; best round"},
	{"cpu_ns_per_byte", "ns/B", "lower", 0.25, "process user+system CPU (getrusage) over a round's timed region per payload byte delivered, all three parties; best round"},
	{"wire_bytes_per_byte", "ratio", "lower", 0.01, "bytes the clients wrote to their sockets per payload byte they sent, over all timed regions; a count"},
	{"allocs_per_record", "count", "lower", 0.05, "heap allocations (MemStats.Mallocs) in the timed regions per application Write call, all three parties"},
	{"live_heap_mb", "MiB", "lower", 0.10, "HeapAlloc after a forced GC at the end of a round's timed region, connections still open; median of rounds"},
	{"setup_s", "s", "lower", 0.25, "payload generation plus a round's set-up: ruleset sign, NewMiddlebox, listeners, dials with rule preparation, warm-up; best round"},
}

// perLayerMetrics are measured by the traced run (-trace 1). They carry
// no bound; the mapping says what each should move.
var perLayerMetrics = []metric{
	// tokenize: Tokenizer.Append + Flush on 16 KiB records.
	{"tokenize.delim_ns_per_byte", "ns/B", "lower", 0, "goodput_mbps, cpu_ns_per_byte @ bulk_text; no move @ bulk_binary"},
	{"tokenize.window_ns_per_byte", "ns/B", "lower", 0, "goodput_mbps, cpu_ns_per_byte @ bulk_window_p3"},
	{"tokenize.delim_tokens_per_byte", "count", "lower", 0, "wire_bytes_per_byte @ bulk_text, rr_small (a count)"},
	{"tokenize.window_tokens_per_byte", "count", "lower", 0, "wire_bytes_per_byte @ bulk_window_p3 (a count)"},
	{"tokenize.allocs_per_record", "count", "lower", 0, "allocs_per_record @ bulk_text"},
	// dpienc: Sender.AssignTokens / EncryptAssigned on the delimiter tokens of 4 MiB.
	{"dpienc.assign_ns_per_token", "ns", "lower", 0, "goodput_mbps @ bulk_text (largest single share)"},
	{"dpienc.encrypt_ns_per_token", "ns", "lower", 0, "goodput_mbps @ bulk_text"},
	{"dpienc.p3_encrypt_ns_per_token", "ns", "lower", 0, "goodput_mbps @ bulk_window_p3"},
	{"dpienc.allocs_per_token", "count", "lower", 0, "allocs_per_record @ bulk_text"},
	{"dpienc.distinct_token_ratio", "ratio", "lower", 0, "a property of the corpus: how fast DPIEnc state grows"},
	{"dpienc.state_bytes_per_distinct_token", "B", "lower", 0, "live_heap_mb @ bulk_text, bulk_window_p3"},
	// core: SenderPipeline and Validator as transport drives them.
	{"core.sender_ns_per_byte", "ns/B", "lower", 0, "goodput_mbps, cpu_ns_per_byte @ bulk_text (with the validator, most of it)"},
	{"core.validator_ns_per_byte", "ns/B", "lower", 0, "goodput_mbps, cpu_ns_per_byte @ bulk_text"},
	{"core.sender_small_ns_per_record", "ns", "lower", 0, "op_p50_us @ rr_small"},
	{"core.binary_ns_per_record", "ns", "lower", 0, "~0 of cpu_ns_per_byte @ bulk_binary"},
	// transport: token marshalling, AEAD, record framing, the handshake.
	{"transport.marshal_ns_per_token", "ns", "lower", 0, "goodput_mbps @ bulk_window_p3; <2% @ bulk_text"},
	{"transport.unmarshal_ns_per_token", "ns", "lower", 0, "goodput_mbps @ bulk_window_p3 (runs twice: middlebox and receiver)"},
	{"transport.wire_bytes_per_token.p2", "B", "lower", 0, "wire_bytes_per_byte @ bulk_text, rr_small (a count)"},
	{"transport.wire_bytes_per_token.p3", "B", "lower", 0, "wire_bytes_per_byte @ bulk_window_p3 (a count)"},
	{"transport.seal_ns_per_byte", "ns/B", "lower", 0, "goodput_mbps, cpu_ns_per_byte @ bulk_binary"},
	{"transport.open_ns_per_byte", "ns/B", "lower", 0, "goodput_mbps, cpu_ns_per_byte @ bulk_binary"},
	{"transport.record_rw_ns", "ns", "lower", 0, "op_p50_us @ rr_small, goodput_mbps @ bulk_binary (WriteRecord+ReadRecord, 256 B, loopback)"},
	{"transport.socket_writes_per_app_write", "count", "lower", 0, "op_p50_us @ rr_small, goodput_mbps @ bulk_binary (a count, this workload)"},
	{"transport.conn_write_allocs.16k", "count", "lower", 0, "allocs_per_record @ bulk_text, bulk_binary (direct pair, both ends)"},
	{"transport.conn_write_allocs.256", "count", "lower", 0, "allocs_per_record, op_p50_us @ rr_small"},
	{"transport.handshake_ms", "ms", "lower", 0, "op_p50_us @ short_flows (the part that is not rule preparation)"},
	{"transport.direct_goodput_mbps", "Mbit/s", "higher", 0, "this workload with no middlebox: the base of middlebox.goodput_ratio"},
	{"transport.direct_op_p50_us", "us", "lower", 0, "this workload with no middlebox: the base of middlebox.added_op_p50_us"},
	// middlebox: what interposition costs, and its own counters for one round.
	{"middlebox.goodput_ratio", "ratio", "higher", 0, "goodput_mbps @ every workload (through the middlebox / direct)"},
	{"middlebox.added_op_p50_us", "us", "lower", 0, "op_p50_us @ rr_small, short_flows"},
	{"middlebox.new_ms", "ms", "lower", 0, "setup_s"},
	{"middlebox.detect_shards", "count", "lower", 0, "what the tuner chose; read op_p90_us @ rr_small and goodput_mbps @ bulk_window_p3 beside it"},
	{"middlebox.tokens_scanned", "count", "higher", 0, "exact: equals the offline oracle"},
	{"middlebox.bytes_forwarded", "count", "higher", 0, "exact: equals the offline oracle"},
	{"middlebox.alerts", "count", "higher", 0, "primary alerts equal the offline oracle; Protocol III adds secondary ones"},
	{"middlebox.unscanned_bytes", "count", "lower", 0, "must be 0 (fail-closed invariant)"},
	{"middlebox.conn_errors", "count", "lower", 0, "must be 0"},
	// detect: Engine.ScanBatch, 512-token batches, by ruleset size.
	{"detect.scan_ns_per_token.r6", "ns", "lower", 0, "small share of goodput_mbps @ bulk_text; none @ bulk_binary"},
	{"detect.scan_ns_per_token.r300", "ns", "lower", 0, "the ruleset-size axis no live workload carries yet"},
	{"detect.scan_ns_per_token.r3000", "ns", "lower", 0, "the ruleset-size axis no live workload carries yet"},
	{"detect.p3_scan_ns_per_token.r6", "ns", "lower", 0, "goodput_mbps @ bulk_window_p3"},
	{"detect.engine_build_ms.r3000", "ms", "lower", 0, "setup_s once a live workload carries 3000 rules"},
	{"detect.fragments.r3000", "count", "lower", 0, "fragments in the generated 3000-rule set (a count)"},
	{"detect.allocs_per_token", "count", "lower", 0, "allocs_per_record @ bulk_window_p3"},
	// set-up layers, timed directly.
	{"circuit.f_gates", "count", "lower", 0, "op_p50_us @ short_flows, setup_s (a count)"},
	{"circuit.f_and_gates", "count", "lower", 0, "op_p50_us @ short_flows, setup_s, wire_bytes_per_byte @ short_flows (a count)"},
	{"garble.garble_ms_per_circuit", "ms", "lower", 0, "op_p50_us @ short_flows, setup_s (12 per connection with rules6)"},
	{"garble.eval_ms_per_circuit", "ms", "lower", 0, "op_p50_us @ short_flows, setup_s (6 per connection)"},
	{"garble.wire_ms_per_circuit", "ms", "lower", 0, "op_p50_us @ short_flows, setup_s (marshal, loopback, unmarshal, equality; 12 per connection)"},
	{"garble.bytes_per_circuit", "B", "lower", 0, "wire_bytes_per_byte @ short_flows (a count)"},
	{"ot.base_ms", "ms", "lower", 0, "op_p50_us @ short_flows, setup_s (2 per connection)"},
	{"ot.ext_ms_per_fragment", "ms", "lower", 0, "op_p50_us @ short_flows, setup_s (12 per connection)"},
	{"ruleprep.local_ms_per_fragment", "ms", "lower", 0, "op_p50_us @ short_flows, setup_s (RunLocal: both endpoints and the middlebox in process)"},
	{"ruleprep.wire_bytes_per_fragment", "B", "lower", 0, "wire_bytes_per_byte @ short_flows (client leg, a count)"},
	// the program's own spans, collected in memory through the public Trace fields.
	{"obs.trace_overhead_ratio", "ratio", "lower", 0, "1 - traced/untraced goodput_mbps @ this workload"},
	{"insitu.tokenize_ns_per_byte", "ns/B", "lower", 0, "cross-check of trace.tokenize_self_ns_per_byte (sender only)"},
	{"insitu.encrypt_ns_per_byte", "ns/B", "lower", 0, "cross-check of trace.dpienc.assign + trace.dpienc.encrypt (sender only)"},
	{"insitu.scan_ns_per_byte", "ns/B", "lower", 0, "cross-check of trace.detect.scan_self_ns_per_byte"},
	{"insitu.prep_garble_ms", "ms", "lower", 0, "cross-check of 12 x garble.garble_ms_per_circuit, per connection"},
	{"insitu.prep_ot_ext_ms", "ms", "lower", 0, "cross-check of 12 x ot.ext_ms_per_fragment, per connection"},
	{"insitu.prep_rule_enc_ms", "ms", "lower", 0, "cross-check of 6 x garble.eval_ms_per_circuit plus verification, per connection"},
	// the replay's budget for this workload.
	{"run.cpu_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte of the untraced rounds of this run: the base of trace.coverage_ratio"},
	{"run.heap_growth_bytes_per_byte", "B/B", "lower", 0, "live_heap_mb: HeapAlloc growth over the timed region per payload byte"},
	{"run.gc_cpu_ns_per_byte", "ns/B", "lower", 0, "the garbage collector's share of run.cpu_ns_per_byte (runtime/metrics); the replay cannot attribute it to a layer"},
	{"trace.tokenize_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload"},
	{"trace.dpienc.assign_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload"},
	{"trace.dpienc.encrypt_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload"},
	{"trace.transport.marshal_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload"},
	{"trace.transport.seal_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload"},
	{"trace.socket_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload (four legs: two records over two hops)"},
	{"trace.transport.unmarshal_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload (middlebox and receiver)"},
	{"trace.detect.scan_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload"},
	{"trace.core.validate_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload (the receiver's tokenize + assign + encrypt + compare)"},
	{"trace.transport.open_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte @ this workload"},
	{"trace.garble_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte, op_p50_us @ short_flows; 0 elsewhere (12 circuits per connection)"},
	{"trace.garble.wire_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte, op_p50_us @ short_flows; 0 elsewhere (marshal, loopback, unmarshal)"},
	{"trace.ot.base_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte, op_p50_us @ short_flows; 0 elsewhere (one phase per leg)"},
	{"trace.ot.ext_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte, op_p50_us @ short_flows; 0 elsewhere"},
	{"trace.ruleprep.rule_enc_self_ns_per_byte", "ns/B", "lower", 0, "cpu_ns_per_byte, op_p50_us @ short_flows; 0 elsewhere (verify + evaluate, per fragment)"},
	{"trace.detect.scan.r3000_self_ns_per_byte", "ns/B", "lower", 0, "not on the path: the replay's tokens against a 3000-rule engine"},
	{"trace.glue_self_ns_per_byte", "ns/B", "lower", 0, "the replay's own overhead between calls"},
	{"trace.coverage_ratio", "ratio", "higher", 0, "sum of path self times per byte / run.cpu_ns_per_byte; reconciles within 0.8-1.2"},
	{"trace.unattributed_ns_per_byte", "ns/B", "lower", 0, "run.cpu_ns_per_byte less the path sum: GC, scheduler, goroutine hand-offs"},
}

func metricUnit(name string) (string, bool) {
	for _, tab := range [][]metric{endToEndMetrics, perLayerMetrics} {
		for _, m := range tab {
			if m.Name == name {
				return m.Unit, true
			}
		}
	}
	return "", false
}

// markdownTables renders the workload and metric tables the way README.md
// carries them (bench_test.go checks the README has every name).
func markdownTables() string {
	var b bytes.Buffer
	b.WriteString("| workload | why it exists |\n|---|---|\n")
	for _, w := range workloads {
		fmt.Fprintf(&b, "| `%s` | %s |\n", w.name, w.why)
	}
	b.WriteString("\n| end-to-end metric | unit | better | bound | definition |\n|---|---|---|---|---|\n")
	for _, m := range endToEndMetrics {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %.2f | %s |\n", m.Name, m.Unit, m.Better, m.Bound, m.moves)
	}
	b.WriteString("\n| per-layer metric | unit | better | should move (end-to-end metric @ workload) |\n|---|---|---|---|\n")
	for _, m := range perLayerMetrics {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", m.Name, m.Unit, m.Better, m.moves)
	}
	return b.String()
}

// benchmarkJSON renders the contract file from the tables above, so the
// file and the program cannot drift (spec_test.go compares them).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	// metric marshals to exactly the contract's keys: name, unit, better,
	// and bound where there is one (a per-layer metric's is 0 and omitted).
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEndMetrics,
		PerLayer:   perLayerMetrics,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.name, w.why})
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}
