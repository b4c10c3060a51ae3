// Command benchmark is the repository's one end-to-end benchmark: live
// client → middlebox → server sessions over 127.0.0.1 TCP inside one
// process, five workloads that stress different layers, a correctness
// oracle, and a traced run whose per-layer budget is reconciled against
// the untraced CPU bill. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload   = flag.String("workload", "", "run this one workload in-process and end with the result line; empty runs all five, each in a child process")
		seed       = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds    = flag.Float64("seconds", runSeconds, "how long the timed regions of one run add up to")
		trace      = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics, tracing off")
		out        = flag.String("out", ".bench_build/out", "directory for reports, span files and profiles (keep it outside the repository's tracked files)")
		repeat     = flag.Int("repeat", 1, "with no -workload: run the whole set this many times, on seeds seed, seed+1, ...")
		compare    = flag.Bool("compare", false, "compare two reports: -compare A.json B.json")
		writeSpec  = flag.String("write-spec", "", "write BENCHMARK.json, rendered from the program's tables, to this path and exit")
		cpuprofile = flag.String("cpuprofile", "", "with -workload: write a CPU profile of the run to this file")
		memprofile = flag.String("memprofile", "", "with -workload: write a heap profile taken at the end of the run to this file")
	)
	tables := flag.Bool("tables", false, "print the workload and metric tables as Markdown (what README.md carries) and exit")
	flag.Parse()

	switch {
	case *tables:
		fmt.Print(markdownTables())
		return 0
	case *writeSpec != "":
		doc, err := benchmarkJSON()
		if err == nil {
			err = os.WriteFile(*writeSpec, doc, 0o644)
		}
		return exitCode(err)
	case *compare:
		if flag.NArg() != 2 {
			return exitCode(fmt.Errorf("usage: -compare A.json B.json"))
		}
		return compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload == "":
		return runAll(*seed, *seconds, *trace, *repeat, *out)
	}

	w := findWorkload(*workload)
	if w == nil {
		return exitCode(fmt.Errorf("unknown workload %q", *workload))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return exitCode(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return exitCode(err)
		}
		defer pprof.StopCPUProfile()
	}
	d := time.Duration(*seconds * float64(time.Second))
	var o *runOutcome
	var err error
	if *trace != 0 {
		o, err = perLayer(w, *seed, d, *out, os.Stdout)
	} else {
		o, err = endToEnd(w, *seed, d, os.Stdout)
	}
	if err != nil {
		return exitCode(err)
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return exitCode(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return exitCode(err)
		}
	}

	fp := fingerprint()
	fmt.Printf("# host: %s\n", fp)
	printMetrics(os.Stdout, o.diag, ".diag")
	printMetrics(os.Stdout, o.metrics, "")
	for _, f := range o.failures {
		fmt.Printf("# FAILED: %s\n", f)
	}
	fmt.Printf("# op_fail_ratio %g (%d of %d)\n", float64(o.failed)/float64(o.attempted), o.failed, o.attempted)
	line, err := json.Marshal(result{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.metrics,
	})
	if err != nil {
		return exitCode(err)
	}
	fmt.Println(string(line))
	if o.failed != 0 {
		return 1
	}
	return 0
}

func exitCode(err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return 0
}
