// Command benchgate enforces the contracts of two experiment reports:
//
//	go run ./scripts/benchgate -scenarios BENCH_scenarios.json -design DESIGN.md
//	go run ./scripts/benchgate -obs BENCH_obs.json
//
// -scenarios holds the adversarial-conformance result (every MustDetect case
// caught, no undeclared miss, no false alert, every miss class documented);
// -obs holds the flight recorder's overhead budget. Exactly one is required.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/experiments"
)

// allocCeiling is the host-independent allocs/span ceiling for the flight
// recorder's steady-state record path: effectively zero, with headroom for
// O(1) bookkeeping per pass.
const allocCeiling = 0.01

func main() {
	scenarios := flag.String("scenarios", "", "gate a BENCH_scenarios.json")
	obsPath := flag.String("obs", "", "gate a BENCH_obs.json (flight-recorder overhead)")
	design := flag.String("design", "DESIGN.md", "design doc that must enumerate every documented miss class")
	flag.Parse()

	switch {
	case *scenarios != "":
		gateScenarios(*scenarios, *design)
	case *obsPath != "":
		gateObs(*obsPath)
	default:
		fmt.Fprintln(os.Stderr, "benchgate: one of -scenarios or -obs is required")
		os.Exit(2)
	}
}

// obsOverheadFloor is the tracing budget from DESIGN.md §8: a
// traced-but-unsampled flow (what 99% of flows are at 1% sampling) must
// keep at least 95% of the tracing-off token rate.
const obsOverheadFloor = 0.95

// gateObs enforces the flight-recorder cost contract on a BENCH_obs.json:
// the unsampled pass within the overhead budget, the scraped-at-10Hz pass
// keeping >= 95% of the unscraped rate (skipped for results predating the
// fleet plane), zero steady-state allocations on the record path, and
// proof that both dispositions were actually exercised (the head pass
// flushed, the unsampled pass dropped).
func gateObs(path string) {
	res, err := experiments.ReadObsOverheadJSON(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	failed := false
	check := func(name string, ok bool, detail string) {
		if ok {
			fmt.Printf("ok   %-44s %s\n", name, detail)
		} else {
			failed = true
			fmt.Printf("FAIL %-44s %s\n", name, detail)
		}
	}
	check("unsampled/off overhead ratio", res.UnsampledOverheadRatio >= obsOverheadFloor,
		fmt.Sprintf("%.3f (floor %.2f)", res.UnsampledOverheadRatio, obsOverheadFloor))
	// A worker being scraped at 10 Hz must keep >= 95% of its unscraped
	// rate, and the scraper must actually have polled during the pass.
	// Results recorded before the fleet plane carry no scraped pass (zero
	// fields) and skip the check rather than fail it.
	if res.ScrapedNs > 0 {
		check("scraped/unsampled overhead ratio", res.ScrapedOverheadRatio >= obsOverheadFloor && res.Scrapes > 0,
			fmt.Sprintf("%.3f (floor %.2f, %d scrapes)", res.ScrapedOverheadRatio, obsOverheadFloor, res.Scrapes))
	} else {
		fmt.Println("benchgate: result has no scraped pass (pre-fleet JSON); scrape check skipped")
	}
	check("record path allocs/span", res.AllocsMeasured && res.RecordAllocsPerSpan <= allocCeiling,
		fmt.Sprintf("%.4f (ceiling %.2g)", res.RecordAllocsPerSpan, allocCeiling))
	check("head pass streamed spans", res.FlowsHead > 0 && res.SpansFlushed > 0,
		fmt.Sprintf("%d flows, %d spans", res.FlowsHead, res.SpansFlushed))
	check("unsampled pass dropped rings", res.FlowsDrop > 0 && res.SpansDropped > 0,
		fmt.Sprintf("%d flows, %d spans", res.FlowsDrop, res.SpansDropped))
	if failed {
		fmt.Println("benchgate: OBSERVABILITY OVERHEAD FAILURE (rerun on an idle machine before concluding a regression)")
		os.Exit(1)
	}
	fmt.Println("benchgate: obs ok")
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
