// Command blindbench regenerates every table and figure of the BlindBox
// paper's evaluation (§7) on this machine.
//
// Usage:
//
//	blindbench -experiment all
//	blindbench -experiment table1|table2|fig3|fig4|fig5|fig6|accuracy|throughput|setup|setupbreakdown|ablation|scenarios
//	blindbench -experiment setupbreakdown -setup-out BENCH_setup_breakdown.json [-trace-dir traces/]
//
// Absolute numbers reflect this host, not the paper's DPDK testbed; the
// reproduced quantities are the comparative shapes (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/tokenize"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run: all, table1, table2, fig3, fig4, fig5, fig6, accuracy, throughput, setup, setupbreakdown, ablation, scenarios")
	fast := flag.Bool("fast", false, "reduce sample sizes for a quicker run")
	setupOut := flag.String("setup-out", "BENCH_setup_breakdown.json", "path for the setupbreakdown experiment's machine-readable result (empty disables)")
	scenariosOut := flag.String("scenarios-out", "BENCH_scenarios.json", "path for the scenarios experiment's machine-readable result (empty disables)")
	traceDir := flag.String("trace-dir", "", "setupbreakdown: also write the parties' raw span files (client/mb/server.jsonl) to this directory")
	flag.Parse()

	runners := map[string]func(fast bool) error{
		"table1":     runTable1,
		"table2":     runTable2,
		"fig3":       runFig3,
		"fig4":       runFig4,
		"fig5":       runFig5,
		"fig6":       runFig6,
		"accuracy":   runAccuracy,
		"throughput": runThroughput,
		"setup":      runSetup,
		"setupbreakdown": func(fast bool) error {
			return runSetupBreakdown(fast, *setupOut, *traceDir)
		},
		"ablation":  runAblation,
		"scenarios": func(bool) error { return runScenarios(*scenariosOut) },
	}
	order := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "accuracy", "throughput", "setup", "setupbreakdown", "ablation", "scenarios"}

	if *exp == "all" {
		for _, name := range order {
			banner(name)
			if err := runners[name](*fast); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *exp)
		os.Exit(2)
	}
	if err := run(*fast); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", *exp, err)
		os.Exit(1)
	}
}

func banner(name string) {
	fmt.Printf("\n===== %s =====\n", name)
}

func runTable1(bool) error {
	rows, err := experiments.Table1()
	if err != nil {
		return err
	}
	experiments.PrintTable1(os.Stdout, rows)
	return nil
}

func runTable2(fast bool) error {
	opt := experiments.DefaultTable2Options()
	if fast {
		opt.SetupKeywords = 2
		opt.MinSample = 5 * time.Millisecond
	}
	rows, err := experiments.Table2(opt)
	if err != nil {
		return err
	}
	experiments.PrintTable2(os.Stdout, rows)
	return nil
}

func runFig3(bool) error {
	rows := experiments.PageLoad(netem.Typical20Mbps(), tokenize.Delimiter)
	experiments.PrintPageLoad(os.Stdout, "3 (20Mbps x 10ms)", rows)
	return nil
}

func runFig4(bool) error {
	rows := experiments.PageLoad(netem.Fast1Gbps(), tokenize.Delimiter)
	experiments.PrintPageLoad(os.Stdout, "4 (1Gbps x 10ms)", rows)
	return nil
}

func runFig5(bool) error {
	experiments.PrintBandwidth(os.Stdout, experiments.Bandwidth())
	return nil
}

func runFig6(bool) error {
	experiments.PrintFig6(os.Stdout, experiments.Bandwidth())
	return nil
}

func runAccuracy(fast bool) error {
	opt := experiments.DefaultAccuracyOptions()
	if fast {
		opt.Rules = 100
		opt.Trace.Flows = 50
	}
	results, err := experiments.Accuracy(opt)
	if err != nil {
		return err
	}
	experiments.PrintAccuracy(os.Stdout, results)
	return nil
}

func runThroughput(fast bool) error {
	opt := experiments.DefaultThroughputOptions()
	if fast {
		opt.Rules = 500
		opt.TrafficBytes = 1 << 20
	}
	res, err := experiments.Throughput(opt)
	if err != nil {
		return err
	}
	experiments.PrintThroughput(os.Stdout, res)
	// Per-core scaling: the paper's rates are per core; per-connection
	// engines share nothing, so the aggregate grows with available cores.
	for _, conns := range []int{1, 2, 4} {
		agg, err := experiments.ThroughputScaling(opt, conns)
		if err != nil {
			return err
		}
		fmt.Printf("aggregate over %d parallel connections: %.0f Mbps (GOMAXPROCS=%d)\n",
			conns, agg, runtime.GOMAXPROCS(0))
	}
	return nil
}

func runSetup(fast bool) error {
	opt := experiments.DefaultSetupOptions()
	if fast {
		opt.MeasuredKeywords = 2
	}
	res, err := experiments.Setup(opt)
	if err != nil {
		return err
	}
	experiments.PrintSetup(os.Stdout, res)
	return nil
}

func runSetupBreakdown(fast bool, out, traceDir string) error {
	opt := experiments.DefaultSetupBreakdownOptions()
	opt.TraceDir = traceDir
	if fast {
		opt.Sessions = 1
		opt.PayloadBytes = 1 << 10
		opt.Keywords = 2
	}
	res, err := experiments.SetupBreakdown(opt)
	if err != nil {
		return err
	}
	experiments.PrintSetupBreakdown(os.Stdout, res)
	if out != "" {
		if err := experiments.WriteSetupBreakdownJSON(out, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	if traceDir != "" {
		fmt.Printf("wrote %s/{client,mb,server}.jsonl — assemble with: go run ./cmd/bbtrace -assemble %s/client.jsonl %s/mb.jsonl %s/server.jsonl\n",
			traceDir, traceDir, traceDir, traceDir)
	}
	return nil
}

func runScenarios(out string) error {
	res, err := experiments.Scenarios(experiments.DefaultScenariosOptions())
	if err != nil {
		return err
	}
	experiments.PrintScenarios(os.Stdout, res)
	if out != "" {
		if err := experiments.WriteScenariosJSON(out, res); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", out)
	}
	return nil
}

func runAblation(bool) error {
	if err := experiments.AblationGarbleSBox(os.Stdout); err != nil {
		return err
	}
	if err := experiments.AblationGarbleRows(os.Stdout); err != nil {
		return err
	}
	return experiments.AblationUnauthorized(os.Stdout)
}
