// Command bbtrace generates ICTF-like attack traces as standard pcap files
// and inspects pcap files with both detection engines — the plaintext
// Snort-like baseline and the encrypted BlindBox pipeline — reporting the
// §7.1 accuracy comparison on file-based traces.
//
// Generate a trace:
//
//	bbtrace -gen trace.pcap -rules out.rules.json [-flows 100] [-misalign 0.03]
//
// Inspect a trace — print, over its reassembled TCP flows, the same §7.1
// table as blindbench -experiment accuracy:
//
//	bbtrace -inspect trace.pcap -rules out.rules.json [-tokens delimiter]
//
// Summarize a JSONL span file written by bbmb -trace (or any obs.JSONLSink):
//
//	bbtrace -spans spans.jsonl
//
// Assemble the distributed trace of a three-party session — merge the span
// files of client, middlebox and server, align clocks, print each flow's
// span tree and critical path (DESIGN.md §8):
//
//	bbtrace -assemble client.jsonl mb.jsonl server.jsonl [-json out.json] [-strict]
//
// Pull live flight-recorder spans straight from running workers' admin
// endpoints (the same /debug/spans and /debug/trace endpoints bbfleet's
// /cluster/trace uses, via the same pull client) and summarize or assemble
// them without touching disk:
//
//	bbtrace -from-url http://127.0.0.1:9001,http://127.0.0.1:9002 [-id <traceid>] [-assemble]
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/pcapio"
	"repro/internal/rgconfig"
	"repro/internal/rules"
	"repro/internal/tokenize"
)

func main() {
	gen := flag.String("gen", "", "write a synthetic attack trace to this pcap file")
	inspect := flag.String("inspect", "", "inspect this pcap file")
	spans := flag.String("spans", "", "summarize this JSONL span file (from bbmb -trace)")
	fromURL := flag.String("from-url", "", "comma-separated worker admin base URLs: pull live flight-recorder spans instead of reading files")
	traceID := flag.String("id", "", "with -from-url: pull only this 32-hex trace ID (/debug/trace) instead of every live flow (/debug/spans)")
	assemble := flag.Bool("assemble", false, "assemble the JSONL span files given as arguments into per-flow trace trees")
	jsonOut := flag.String("json", "", "with -assemble: also write the machine-readable report to this file (- for stdout)")
	strict := flag.Bool("strict", false, "with -assemble: exit non-zero on orphan spans, rootless traces, or critical path > wall-clock")
	rulesPath := flag.String("rules", "", "signed ruleset from bbrulegen (required for -gen/-inspect)")
	flows := flag.Int("flows", 100, "flows to generate")
	flowBytes := flag.Int("flowbytes", 8<<10, "benign bytes per flow")
	attacks := flag.Float64("attacks", 1.5, "mean injected attacks per flow")
	misalign := flag.Float64("misalign", 0.03, "fraction of injections misaligned with delimiters")
	seed := flag.Int64("seed", 1, "generation seed")
	tokens := flag.String("tokens", "delimiter", "tokenization for -inspect: window or delimiter")
	flag.Parse()

	if *fromURL != "" {
		if err := pullFromWorkers(*fromURL, *traceID, *assemble, *jsonOut, *strict, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *assemble {
		if flag.NArg() == 0 {
			log.Fatal("bbtrace -assemble: need at least one JSONL span file argument")
		}
		if err := assembleFiles(flag.Args(), *jsonOut, *strict, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *spans != "" {
		if err := summarizeSpans(*spans); err != nil {
			log.Fatal(err)
		}
		return
	}
	if *rulesPath == "" || (*gen == "") == (*inspect == "") {
		flag.Usage()
		os.Exit(2)
	}
	signed, err := rgconfig.LoadSignedRuleset(*rulesPath)
	if err != nil {
		log.Fatalf("loading ruleset: %v", err)
	}
	rs := signed.Ruleset

	if *gen != "" {
		if err := generate(*gen, rs, *flows, *flowBytes, *attacks, *misalign, *seed); err != nil {
			log.Fatal(err)
		}
		return
	}
	mode := tokenize.Delimiter
	if *tokens == "window" {
		mode = tokenize.Window
	}
	if err := inspectPcap(os.Stdout, *inspect, rs, mode); err != nil {
		log.Fatal(err)
	}
}

// summarizeSpans aggregates a JSONL span stream per span name: count,
// total/mean/max duration, and the tokens and bytes the spans covered. It
// also reports how many distinct flows appear and any spans that ended in
// error.
func summarizeSpans(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return summarizeSpanSet(path, spans)
}

// summarizeSpanSet prints the span summary table for an already-collected
// span set, labeled by its source (a file path or worker URL list).
func summarizeSpanSet(label string, spans []obs.Span) error {
	if len(spans) == 0 {
		fmt.Printf("%s: no spans\n", label)
		return nil
	}

	type agg struct {
		count, errs   int
		total, max    time.Duration
		tokens, bytes int
	}
	byName := map[string]*agg{}
	flows := map[uint64]bool{}
	// disposition tracks how each flow's spans reached the file: "head"
	// (streamed by head sampling) or "tail" (flight-recorder flush on an
	// interesting end). Flows without the label predate the recorder or
	// streamed directly; they are reported as unlabeled, not as errors.
	disposition := map[uint64]string{}
	for _, sp := range spans {
		a := byName[sp.Name]
		if a == nil {
			a = &agg{}
			byName[sp.Name] = a
		}
		a.count++
		d := time.Duration(sp.Dur)
		a.total += d
		if d > a.max {
			a.max = d
		}
		a.tokens += sp.Tokens
		a.bytes += sp.Bytes
		if sp.Err != "" {
			a.errs++
		}
		flows[sp.Flow] = true
		if sp.Sampled != "" {
			disposition[sp.Flow] = sp.Sampled
		}
	}

	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d spans over %d flows\n", label, len(spans), len(flows))
	if len(disposition) > 0 {
		head, tail := 0, 0
		for _, d := range disposition {
			if d == "tail" {
				tail++
			} else {
				head++
			}
		}
		fmt.Printf("sampling: %d head-sampled, %d tail-flushed, %d unlabeled flows (sampled-out flows never reach the file)\n",
			head, tail, len(flows)-head-tail)
	}
	fmt.Printf("%-10s %8s %12s %12s %12s %10s %12s %6s\n",
		"span", "count", "total", "mean", "max", "tokens", "bytes", "errs")
	for _, name := range names {
		a := byName[name]
		fmt.Printf("%-10s %8d %12s %12s %12s %10d %12d %6d\n",
			name, a.count, a.total.Round(time.Microsecond),
			(a.total / time.Duration(a.count)).Round(time.Nanosecond),
			a.max.Round(time.Microsecond), a.tokens, a.bytes, a.errs)
	}
	return nil
}

func generate(path string, rs *rules.Ruleset, flows, flowBytes int, attacks, misalign float64, seed int64) error {
	cfg := corpus.TraceConfig{
		Flows:            flows,
		FlowBytes:        flowBytes,
		AttacksPerFlow:   attacks,
		MisalignFraction: misalign,
	}
	trace := corpus.AttackTrace(seed, rs, cfg)

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w, err := pcapio.NewWriter(f)
	if err != nil {
		return err
	}
	totalBytes, totalPkts := 0, 0
	for i, flow := range trace {
		key := packet.FlowKey{
			SrcIP:   [4]byte{10, 0, byte(i >> 8), byte(i)},
			DstIP:   [4]byte{192, 168, 0, 80},
			SrcPort: uint16(20000 + i),
			DstPort: 80,
		}
		for j, seg := range packet.Segmentize(key, flow.Payload, 1460) {
			err := w.WritePacket(pcapio.Packet{
				TimestampSec:   uint32(i),
				TimestampMicro: uint32(j),
				Data:           seg.Marshal(),
			})
			if err != nil {
				return err
			}
			totalPkts++
		}
		totalBytes += len(flow.Payload)
	}
	fmt.Printf("wrote %s: %d flows, %d packets, %d payload bytes\n", path, len(trace), totalPkts, totalBytes)
	return nil
}

// inspectPcap reassembles the TCP flows of the capture at path and writes
// the §7.1 comparison of the encrypted path against the plaintext IDS over
// them to w.
func inspectPcap(w io.Writer, path string, rs *rules.Ruleset, mode tokenize.Mode) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	_, payloads, pkts, err := pcapio.ReadTCPFlows(f)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "inspected %d packets, %d flows (%s tokens)\n", pkts, len(payloads), mode)
	experiments.PrintAccuracy(w, []experiments.AccuracyResult{experiments.ScoreAccuracy(rs, mode, payloads)})
	return nil
}
