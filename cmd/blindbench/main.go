// Command blindbench regenerates every table and figure of the BlindBox
// paper's evaluation (§7) on this machine.
//
// Usage:
//
//	blindbench -experiment all
//	blindbench -experiment table1|table2|fig3|fig4|fig5|fig6|accuracy|throughput|setup|scenarios
//
// Absolute numbers reflect this host, not the paper's DPDK testbed; the
// reproduced quantities are the comparative shapes (see EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/experiments"
	"repro/internal/netem"
	"repro/internal/tokenize"
)

func main() {
	exp := flag.String("experiment", "all", "which experiment to run: all, table1, table2, fig3, fig4, fig5, fig6, accuracy, throughput, setup, scenarios")
	fast := flag.Bool("fast", false, "reduce sample sizes for a quicker run")
	scenariosOut := flag.String("scenarios-out", "BENCH_scenarios.json", "path for the scenarios experiment's machine-readable result (empty disables)")
	flag.Parse()
	if *fast {
		// The timed cells run through testing.Benchmark; -fast shortens
		// its benchtime from testing's default 1s a cell.
		testing.Init()
		if err := flag.Set("test.benchtime", "10ms"); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

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
		"scenarios":  func(bool) error { return runScenarios(*scenariosOut) },
	}
	order := []string{"table1", "table2", "fig3", "fig4", "fig5", "fig6", "accuracy", "throughput", "setup", "scenarios"}

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

func runTable2(bool) error {
	rows, err := experiments.Table2()
	if err != nil {
		return err
	}
	experiments.PrintTable2(os.Stdout, rows)
	return nil
}

func runFig3(bool) error {
	rows, err := experiments.PageLoad(netem.Typical20Mbps(), tokenize.Delimiter)
	if err != nil {
		return err
	}
	experiments.PrintPageLoad(os.Stdout, "3 (20Mbps x 10ms)", rows)
	return nil
}

func runFig4(bool) error {
	rows, err := experiments.PageLoad(netem.Fast1Gbps(), tokenize.Delimiter)
	if err != nil {
		return err
	}
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

func runSetup(bool) error {
	res, err := experiments.Setup()
	if err != nil {
		return err
	}
	experiments.PrintSetup(os.Stdout, res)
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
