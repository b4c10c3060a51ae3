// Command bblint is the BlindBox static-analysis driver. It loads every
// package named by its arguments (default ./...), type-checks them with the
// standard library's go/types, runs the rule suite of internal/lint
// (including the secret-flow taint analysis and the hotpath-alloc
// zero-allocation check), and prints findings as file:line:col diagnostics
// with rule IDs. Diagnostics are deduplicated by position and rule and
// always emitted in sorted order.
//
// Usage:
//
//	bblint [-json] [-rules] [packages...]
//
// Exit status: 0 when the tree is clean, 1 when findings were reported,
// 2 on load or analysis errors (unparseable source, unresolvable imports,
// bad usage).
//
// Findings can be suppressed in source with
//
//	//lint:ignore <rule-id> <reason>
//
// on the offending line or the line directly above it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array (for CI diffing)")
	listRules := flag.Bool("rules", false, "print the rule catalog and exit")
	flag.Parse()

	loader, err := lint.NewLoader(".")
	if err != nil {
		fatal(err)
	}
	rules := lint.DefaultRules(loader.ModulePath)
	if *listRules {
		for _, r := range rules {
			fmt.Printf("%-14s %s\n", r.ID(), r.Doc())
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	paths, err := loader.Expand(patterns...)
	if err != nil {
		fatal(err)
	}
	if len(paths) == 0 {
		fatal(fmt.Errorf("bblint: no packages match %v", patterns))
	}

	pkgs, err := loader.LoadAll(paths)
	if err != nil {
		fatal(fmt.Errorf("bblint: %w", err))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "bblint: warning: %s: %v (analysis may be incomplete)\n", pkg.ImportPath, terr)
		}
	}

	findings := lint.Run(pkgs, rules)
	relativize(findings)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []lint.Finding{}
		}
		if err := enc.Encode(findings); err != nil {
			fatal(err)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "bblint: %d finding(s) in %d package(s)\n", len(findings), len(pkgs))
		for _, line := range ruleSummary(findings) {
			fmt.Fprintln(os.Stderr, "bblint:   "+line)
		}
		os.Exit(1)
	}
}

// ruleSummary renders per-rule finding counts, most frequent first.
func ruleSummary(findings []lint.Finding) []string {
	counts := make(map[string]int)
	for _, f := range findings {
		counts[f.RuleID]++
	}
	rules := make([]string, 0, len(counts))
	for r := range counts {
		rules = append(rules, r)
	}
	sort.Slice(rules, func(i, j int) bool {
		if counts[rules[i]] != counts[rules[j]] {
			return counts[rules[i]] > counts[rules[j]]
		}
		return rules[i] < rules[j]
	})
	out := make([]string, len(rules))
	for i, r := range rules {
		out[i] = fmt.Sprintf("%4d  %s", counts[r], r)
	}
	return out
}

// relativize rewrites finding paths relative to the working directory so CI
// output is stable across checkouts.
func relativize(findings []lint.Finding) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range findings {
		if rel, err := filepath.Rel(wd, findings[i].File); err == nil && !filepath.IsAbs(rel) {
			findings[i].File = rel
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(2)
}
