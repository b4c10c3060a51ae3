// Command benchgate enforces the adversarial-conformance contract of a
// scenarios experiment report:
//
//	go run ./scripts/benchgate -scenarios BENCH_scenarios.json -design DESIGN.md
//
// Every MustDetect case caught, no undeclared miss, no false alert, every
// miss class documented.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scenarios := flag.String("scenarios", "", "gate a BENCH_scenarios.json (required)")
	design := flag.String("design", "DESIGN.md", "design doc that must enumerate every documented miss class")
	flag.Parse()

	if *scenarios == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -scenarios is required")
		os.Exit(2)
	}
	gateScenarios(*scenarios, *design)
}

// gateScenarios enforces the adversarial-conformance contract on a
// BENCH_scenarios.json: at least the evasion and bittorrent packs with at
// least six named transforms, every MustDetect case caught, zero
// undeclared misses, zero false alerts, every case conforming, and every
// exercised miss class enumerated in the design doc — a miss may never
// pass silently.
func gateScenarios(path, designPath string) {
	res, err := experiments.ReadScenariosJSON(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	failed := false
	fail := func(format string, args ...any) {
		failed = true
		fmt.Printf("FAIL "+format+"\n", args...)
	}

	if len(res.Packs) < 2 {
		fail("scenario packs: %d < 2", len(res.Packs))
	}
	if len(res.Transforms) < 6 {
		fail("named evasion transforms: %d < 6 (%v)", len(res.Transforms), res.Transforms)
	}
	for _, p := range res.Packs {
		if p.UndeclaredMisses != 0 {
			fail("%s: %d undeclared miss(es)", p.Pack, p.UndeclaredMisses)
		}
		if p.FalseAlerts != 0 {
			fail("%s: %d false alert(s)", p.Pack, p.FalseAlerts)
		}
		if p.Detected != p.MustDetect {
			fail("%s: detection %d/%d — a MustDetect case regressed", p.Pack, p.Detected, p.MustDetect)
		}
		fmt.Printf("ok   %-16s detection %d/%d, false alerts %d/%d, documented misses %d\n",
			p.Pack, p.Detected, p.MustDetect, p.FalseAlerts, p.Benign, p.DocumentedMisses)
	}
	for _, c := range res.Cases {
		if !c.OK {
			fail("%s/%s [%s]: %s", c.Pack, c.Label, c.Outcome, c.Reason)
		}
	}

	designBlob, err := os.ReadFile(designPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	for _, mc := range res.MissClasses {
		if !strings.Contains(string(designBlob), mc) {
			fail("documented miss class %q is not enumerated in %s", mc, designPath)
		} else {
			fmt.Printf("ok   miss class %-28s enumerated in %s\n", mc, designPath)
		}
	}

	if failed {
		fmt.Println("benchgate: ADVERSARIAL CONFORMANCE FAILURE")
		os.Exit(1)
	}
	fmt.Println("benchgate: scenarios ok")
}
