#!/usr/bin/env bash
# loc.sh — Go source lines per top-level package, non-test and test.
#
#   scripts/loc.sh
#
# A package is the root package ("."), one directory under cmd/, examples/
# or internal/ (with its subpackages, so internal/obs counts
# internal/obs/agg), or any other top-level directory (benchmark, scripts).
# "src" counts lines of non-test .go files, "test" lines of _test.go files;
# testdata directories are skipped. The total row is the module-wide total;
# the line after it splits the total's src lines into the paper's data path
# (internal/tokenize, dpienc, detect, core, transport, middlebox), support
# code (internal/lint, internal/obs, internal/experiments, cmd/*, scripts)
# and everything else.
set -euo pipefail
cd "$(dirname "$0")/.."

find . -name '*.go' -not -path './.git/*' -not -path '*/testdata/*' -print0 |
    xargs -0 awk '
        FNR == 1 {
            path = substr(FILENAME, 3)
            n = split(path, part, "/")
            if (n == 1) {
                pkg = "."
            } else if (n > 2 && (part[1] == "cmd" || part[1] == "examples" || part[1] == "internal")) {
                pkg = part[1] "/" part[2]
            } else {
                pkg = part[1]
            }
            kind = (path ~ /_test\.go$/) ? "test" : "src"
            seen[pkg] = 1
            if (pkg ~ /^internal\/(tokenize|dpienc|detect|core|transport|middlebox)$/) {
                part_of[pkg] = "data"
            } else if (pkg ~ /^(internal\/(lint|obs|experiments)|cmd\/.*|scripts)$/) {
                part_of[pkg] = "support"
            } else {
                part_of[pkg] = "other"
            }
        }
        { lines[pkg, kind]++ }
        END {
            printf "%-28s %7s %7s\n", "package", "src", "test"
            for (p in seen) {
                printf "%-28s %7d %7d\n", p, lines[p, "src"], lines[p, "test"] | "sort"
                src += lines[p, "src"]; test += lines[p, "test"]
                split_src[part_of[p]] += lines[p, "src"]
            }
            close("sort")
            printf "%-28s %7d %7d\n", "total", src, test
            printf "src split: data path %d, support %d, other %d (support/data %.2f)\n",
                split_src["data"], split_src["support"], split_src["other"],
                split_src["support"] / split_src["data"]
        }'
