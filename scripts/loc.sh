#!/usr/bin/env bash
# loc.sh — Go source lines per top-level package, non-test and test.
#
#   scripts/loc.sh
#
# A package is the root package ("."), one directory under cmd/, examples/
# or internal/ (with its subpackages, so internal/obs counts
# internal/obs/agg), or any other top-level directory (benchmark, scripts).
# "src" counts lines of non-test .go files, "test" lines of _test.go files;
# testdata directories are skipped. The last row is the module-wide total.
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
        }
        { lines[pkg, kind]++ }
        END {
            printf "%-28s %7s %7s\n", "package", "src", "test"
            for (p in seen) {
                printf "%-28s %7d %7d\n", p, lines[p, "src"], lines[p, "test"] | "sort"
                src += lines[p, "src"]; test += lines[p, "test"]
            }
            close("sort")
            printf "%-28s %7d %7d\n", "total", src, test
        }'
