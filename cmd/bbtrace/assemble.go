// Trace assembly mode: merge the JSONL span files written by the three
// BlindBox parties (bbclient/bbmb/bbserver -trace), reconstruct each
// flow's span tree with clock alignment, and report the critical path —
// the distributed-tracing half of bbtrace (DESIGN.md §8).
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/obs"
)

// assembleReport is the machine-readable result of -assemble (-json).
type assembleReport struct {
	// Files are the span files merged, in argument order.
	Files []string `json:"files"`
	// Traces holds one entry per assembled flow, by root start.
	Traces []traceReport `json:"traces"`
	// Untraced counts v1 flat spans (no trace ID) that were skipped.
	Untraced int `json:"untraced_spans"`
}

// traceReport summarizes one assembled flow.
type traceReport struct {
	// Trace is the 32-hex trace ID.
	Trace string `json:"trace"`
	// Spans counts the spans in the tree (orphans excluded).
	Spans int `json:"spans"`
	// WallNs is the root span's duration; CritNs the attributed critical
	// path (equal for a well-formed trace).
	WallNs int64 `json:"wall_ns"`
	CritNs int64 `json:"crit_ns"`
	// Offsets maps each party to its estimated clock offset.
	Offsets map[string]int64 `json:"clock_offsets_ns"`
	// Orphans counts spans not reachable from the root.
	Orphans int `json:"orphans"`
	// Partial marks a trace whose root was sampled out at its party (the
	// flight recorder kept only some parties' spans); the tree hangs off a
	// synthesized placeholder root.
	Partial bool `json:"partial,omitempty"`
	// Stages aggregates the tree per span name, by critical time.
	Stages []obs.StageStat `json:"stages"`
}

// assembleFiles merges the span files, prints the human timeline to w,
// optionally writes the machine JSON, and returns an error when strict
// checks fail (orphan spans, rootless traces, or critical > wall).
func assembleFiles(paths []string, jsonPath string, strict bool, w io.Writer) error {
	var all []obs.Span
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		spans, err := obs.ReadSpans(f)
		_ = f.Close()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", path, err)
		}
		all = append(all, spans...)
	}
	return assembleSpanSet(paths, all, jsonPath, strict, w)
}

// assembleSpanSet assembles an already-collected span set — the shared
// back half of -assemble (files) and -from-url -assemble (live pulls).
// sources label the report's provenance (file paths or worker URLs).
func assembleSpanSet(sources []string, all []obs.Span, jsonPath string, strict bool, w io.Writer) error {
	flows, untraced, err := obs.AssembleSpans(all)
	if err != nil {
		return err
	}
	if len(flows) == 0 {
		return fmt.Errorf("no traced spans in %d source(s) (%d untraced)", len(sources), len(untraced))
	}

	rep := assembleReport{Files: sources, Untraced: len(untraced)}
	var strictErr error
	for _, ft := range flows {
		printFlow(w, ft)
		rep.Traces = append(rep.Traces, traceReport{
			Trace:   ft.Trace,
			Spans:   len(ft.Nodes()),
			WallNs:  ft.WallNs,
			CritNs:  ft.CritNs,
			Offsets: ft.Offsets,
			Orphans: len(ft.Orphans),
			Partial: ft.Partial,
			Stages:  ft.Stages(),
		})
		if strictErr == nil {
			// Partial traces (root sampled out at its party) get a pass on
			// the root and orphan checks: missing ancestors are expected
			// under tail sampling, and the synthesized root adopts them.
			switch {
			case ft.Root == nil:
				strictErr = fmt.Errorf("trace %s: no root span", ft.Trace)
			case len(ft.Orphans) > 0 && !ft.Partial:
				strictErr = fmt.Errorf("trace %s: %d orphan span(s)", ft.Trace, len(ft.Orphans))
			case ft.CritNs > ft.WallNs:
				strictErr = fmt.Errorf("trace %s: critical path %dns exceeds wall-clock %dns", ft.Trace, ft.CritNs, ft.WallNs)
			}
		}
	}
	if len(untraced) > 0 {
		fmt.Fprintf(w, "untraced: %d span(s) without trace context skipped\n", len(untraced))
	}

	if jsonPath != "" {
		out, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if jsonPath == "-" {
			fmt.Fprintln(w, string(out))
		} else if err := os.WriteFile(jsonPath, append(out, '\n'), 0o644); err != nil {
			return err
		}
	}
	if strict && strictErr != nil {
		return strictErr
	}
	return nil
}

// printFlow renders one flow: header, aligned span tree, stage table and
// orphans. Offsets are relative to the root's aligned start so the output
// is stable across runs of the same fixture.
func printFlow(w io.Writer, ft *obs.FlowTrace) {
	partial := ""
	if ft.Partial {
		partial = " [partial: root sampled out]"
	}
	fmt.Fprintf(w, "trace %s: wall %s, critical %s (%.1f%%)%s\n",
		ft.Trace, ns(ft.WallNs), ns(ft.CritNs), pct(ft.CritNs, ft.WallNs), partial)
	if len(ft.Offsets) > 1 {
		fmt.Fprintf(w, "  clock offsets:")
		for _, party := range []string{obs.PartyClient, obs.PartyMB, obs.PartyServer} {
			if off, ok := ft.Offsets[party]; ok {
				fmt.Fprintf(w, " %s=%s", party, signedNs(off))
			}
		}
		fmt.Fprintln(w)
	}
	if ft.Root == nil {
		fmt.Fprintf(w, "  NO ROOT: all %d span(s) orphaned\n", len(ft.Orphans))
		return
	}
	printNode(w, ft.Root, ft.Root.Start, 1)
	fmt.Fprintf(w, "  stages (by critical time):\n")
	fmt.Fprintf(w, "    %-14s %6s %12s %12s %8s %8s %10s %9s %9s\n",
		"stage", "count", "total", "critical", "maxconc", "tokens", "bytes", "gates", "rows")
	for _, st := range ft.Stages() {
		fmt.Fprintf(w, "    %-14s %6d %12s %12s %8d %8d %10d %9d %9d\n",
			st.Name, st.Count, ns(st.TotalNs), ns(st.CritNs), st.MaxConc,
			st.Tokens, st.Bytes, st.Gates, st.Rows)
	}
	for _, sp := range ft.Orphans {
		fmt.Fprintf(w, "  ORPHAN: %s %s/%s id=%d parent=%d\n", sp.Name, sp.Party, sp.Dir, sp.SpanID, sp.Parent)
	}
}

// collapseAfter bounds how many same-name siblings print individually;
// long scan runs collapse into one summary line.
const collapseAfter = 6

// printNode renders n and its subtree, offsets relative to base.
func printNode(w io.Writer, n *obs.SpanNode, base int64, depth int) {
	fmt.Fprintf(w, "  %*s%11s %10s  %s", 2*depth-2, "", signedNs(n.Start-base), ns(n.End-n.Start), n.Span.Name)
	if n.Span.Party != "" {
		fmt.Fprintf(w, " [%s]", n.Span.Party)
	}
	if n.Span.Dir != "" {
		fmt.Fprintf(w, " dir=%s", n.Span.Dir)
	}
	if n.Span.Shard != nil {
		fmt.Fprintf(w, " shard=%d", *n.Span.Shard)
	}
	if n.Span.Tokens > 0 {
		fmt.Fprintf(w, " tokens=%d", n.Span.Tokens)
	}
	if n.Span.Bytes > 0 {
		fmt.Fprintf(w, " bytes=%d", n.Span.Bytes)
	}
	if n.Span.Gates > 0 {
		fmt.Fprintf(w, " gates=%d", n.Span.Gates)
	}
	if n.Span.Err != "" {
		fmt.Fprintf(w, " err=%q", n.Span.Err)
	}
	fmt.Fprintln(w)

	printed := map[string]int{}
	skipped := map[string]struct {
		count int
		total int64
	}{}
	for _, c := range n.Children {
		if printed[c.Span.Name] >= collapseAfter {
			s := skipped[c.Span.Name]
			s.count++
			s.total += c.End - c.Start
			skipped[c.Span.Name] = s
			continue
		}
		printed[c.Span.Name]++
		printNode(w, c, base, depth+1)
	}
	for _, c := range n.Children {
		// Report each collapsed name once, in first-child order.
		if s, ok := skipped[c.Span.Name]; ok {
			fmt.Fprintf(w, "  %*s… %d more %s span(s), %s total\n",
				2*depth, "", s.count, c.Span.Name, ns(s.total))
			delete(skipped, c.Span.Name)
		}
	}
}

// ns renders nanoseconds with time.Duration's formatting, rounded for
// readability at microsecond granularity.
func ns(v int64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

// signedNs renders a clock offset with an explicit sign.
func signedNs(v int64) string {
	if v >= 0 {
		return "+" + ns(v)
	}
	return ns(v)
}

// pct guards the critical-path percentage against a zero wall-clock.
func pct(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}
