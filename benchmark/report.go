package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// report is what a run of the whole set writes to -out: every run's
// result per workload, and per workload and metric the values across the
// repeats with their quartiles.
type report struct {
	Host    host     `json:"host"`
	Seconds float64  `json:"seconds"`
	Trace   int      `json:"trace"`
	Runs    []setRun `json:"runs"`
	// Summary is keyed by workload, then metric.
	Summary map[string]map[string]summary `json:"summary"`
}

type setRun struct {
	Seed      int64             `json:"seed"`
	Workloads map[string]result `json:"workloads"`
}

type summary struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	// Spread is (Q3-Q1)/Median: what has to stay within a metric's bound
	// for a comparison on that metric to be resolvable.
	Spread float64 `json:"spread"`
}

// runAll runs every workload, each in a fresh child process (clean heap,
// clean tuning cache), repeat times on consecutive seeds, prints the
// children's output and writes the report.
func runAll(seed int64, seconds float64, trace, repeat int, out string) int {
	self, err := os.Executable()
	if err != nil {
		return exitCode(err)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return exitCode(err)
	}
	rep := report{Host: fingerprint(), Seconds: seconds, Trace: trace, Summary: map[string]map[string]summary{}}
	failed := false
	for i := 0; i < repeat; i++ {
		run := setRun{Seed: seed + int64(i), Workloads: map[string]result{}}
		for _, w := range workloads {
			fmt.Printf("== %s seed %d\n", w.name, run.Seed)
			cmd := exec.Command(self,
				"-workload", w.name, "-seed", strconv.FormatInt(run.Seed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace), "-out", out)
			var stdout bytes.Buffer
			cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
			cmd.Stderr = os.Stderr
			runErr := cmd.Run()
			lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s printed no result (%v)\n", w.name, runErr)
				failed = true
				continue
			}
			if runErr != nil || !res.Correct {
				failed = true
			}
			run.Workloads[w.name] = res
		}
		rep.Runs = append(rep.Runs, run)
	}
	rep.summarize()
	name := fmt.Sprintf("report_seed%d", seed)
	if trace != 0 {
		name += "_trace"
	}
	path := filepath.Join(out, name+".json")
	doc, err := json.MarshalIndent(rep, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(doc, '\n'), 0o644)
	}
	if err != nil {
		return exitCode(err)
	}
	fmt.Printf("== report: %s\n", path)
	if failed {
		return 1
	}
	return 0
}

func (rep *report) summarize() {
	for _, w := range workloads {
		vals := map[string][]float64{}
		units := map[string]string{}
		for _, run := range rep.Runs {
			for name, v := range run.Workloads[w.name].Metrics {
				vals[name] = append(vals[name], v.Value)
				units[name] = v.Unit
			}
		}
		rep.Summary[w.name] = map[string]summary{}
		for name, xs := range vals {
			q1, q2, q3 := quartiles(xs)
			rep.Summary[w.name][name] = summary{units[name], xs, q2, q1, q3, spread(xs)}
		}
	}
}

// compareReports prints, per workload and end-to-end metric, both
// reports' medians, by how much B is worse than A as a share of A, and the
// metric's bound. A metric whose own run-to-run spread (in either report)
// exceeds its bound is "unresolved", never "unchanged": the comparison
// cannot tell. It returns 1 if any resolvable metric is worse by more than
// its bound.
func compareReports(w io.Writer, pathA, pathB string) int {
	var a, b report
	for _, in := range []struct {
		path string
		rep  *report
	}{{pathA, &a}, {pathB, &b}} {
		doc, err := os.ReadFile(in.path)
		if err == nil {
			err = json.Unmarshal(doc, in.rep)
		}
		if err != nil {
			return exitCode(fmt.Errorf("%s: %w", in.path, err))
		}
	}
	fmt.Fprintf(w, "A: %s (%d runs, %s)\nB: %s (%d runs, %s)\n", pathA, len(a.Runs), a.Host, pathB, len(b.Runs), b.Host)
	fmt.Fprintf(w, "%-15s %-20s %14s %14s %8s %6s %8s %8s  %s\n",
		"workload", "metric", "A median", "B median", "worse", "bound", "spreadA", "spreadB", "verdict")
	breaches := 0
	for _, wl := range workloads {
		for _, m := range endToEndMetrics {
			sa, okA := a.Summary[wl.name][m.Name]
			sb, okB := b.Summary[wl.name][m.Name]
			if !okA || !okB {
				fmt.Fprintf(w, "%-15s %-20s missing from a report\n", wl.name, m.Name)
				breaches++
				continue
			}
			worse := (sb.Median - sa.Median) / sa.Median
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case sa.Spread > m.Bound || sb.Spread > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "BREACH"
				breaches++
			case len(sa.Values) < 2 || len(sb.Values) < 2:
				verdict = "ok (n=1: spread unknown)"
			}
			fmt.Fprintf(w, "%-15s %-20s %14.6g %14.6g %+7.1f%% %5.0f%% %7.1f%% %7.1f%%  %s\n",
				wl.name, m.Name, sa.Median, sb.Median, 100*worse, 100*m.Bound, 100*sa.Spread, 100*sb.Spread, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than their bound\n", breaches)
		return 1
	}
	return 0
}
