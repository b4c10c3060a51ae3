#!/usr/bin/env bash
# ci.sh — the full BlindBox verification gate, runnable locally or in CI.
#
#   scripts/ci.sh            # everything: vet, build, bblint, tests, race, fuzz smoke
#   scripts/ci.sh quick      # vet + gofmt + build + bblint + unit tests (root and benchmark modules) + F's gate count + one evaluation and OT leg + every paper cell (one garbling among them) once + sender pipeline rows + one 3K-rule detection row + line counts only
#
# Every stage uses only the Go toolchain; the module has no dependencies.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-full}"
FUZZTIME="${FUZZTIME:-10s}"

step() { printf '\n=== %s ===\n' "$*"; }

# go vet's copylocks check is the lock-copy check: a sync.Mutex (or a
# struct holding one) passed, assigned or ranged over by value fails here.
# The benchmark is its own module, which ./... does not reach.
step "go vet"
go vet ./...
go vet -C benchmark .

# gofmt -l prints each file whose formatting differs; any name fails.
step "gofmt"
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "not gofmt-formatted:"
    echo "$unformatted"
    exit 1
fi

step "go build"
go build ./...

# bblint writes its machine-readable report unconditionally (CI uploads it
# as an artifact); on findings the JSON run exits 1, the guard prints the
# human-readable diagnostics plus the per-rule summary, and the gate fails.
step "bblint (static analysis)"
if ! go run ./cmd/bblint -json ./... > bblint-report.json; then
    echo "bblint findings (report: bblint-report.json):"
    go run ./cmd/bblint ./... || true
    exit 1
fi

step "go test"
go test ./...

# The end-to-end benchmark is its own module, outside ./...: its tests pin
# BENCHMARK.json to the tables it is rendered from and the metric arithmetic
# (counts only, no wall clock, < 5 s), and that it still compiles against
# the packages it measures.
step "go test -C benchmark (BENCHMARK.json drift)"
go test -C benchmark .

# Rule preparation's cost is set by two counts, F's AND gates and the bytes
# of one garbled F, and by the three kernels a fragment runs: garbling F at
# each endpoint (BenchmarkPaper/setup/garble), evaluating it at the
# middlebox, and the OT of each leg. Every other timed number blindbench
# prints for Table 2, §7.2.2, Figs. 3/4 and §7.2.3 is a BenchmarkPaper cell
# too. Run each once and print them (no timing claim), so that a gate-count
# or kernel regression shows in this log, and a cell that no longer runs —
# including the §7.2.3 cells at their default size, which no shape test
# runs — fails the gate.
step "rule preparation and paper cells: F's AND gates and garbled bytes, one evaluation, one OT leg, every timed cell once"
go test -run '^$' -bench '^Benchmark(Paper|EvalF|OTLeg)$' -benchtime 1x . |
    grep -E '^Benchmark(Paper/|EvalF|OTLeg)'

# The sender pipeline — tokenize, salt assignment, DPIEnc AES — is most of
# the CPU of both text workloads and is run twice a record (sender and §3.4
# validator); print its cost per byte and per token on the two
# configurations the benchmark runs (one 8 MiB pass each, no timing claim)
# so that a kernel or tokenizer regression shows in this log.
step "sender pipeline: ns/B and ns/token, delimiter P2 and window P3"
go test -run '^$' -bench '^BenchmarkSenderStagePipeline$' -benchtime 1x . | grep '^BenchmarkSenderStagePipeline'

# Detection at the 3K-rule set's 9 900 keywords, on one 512-token batch of
# window-mode traffic with keywords planted in it (no timing claim), so that
# a regression of the engine's table shows in this log.
step "detection: one batch against the 3K-rule set"
go test -run '^$' -bench '^BenchmarkScanBatch3KRules$' -benchtime 1x . | grep '^BenchmarkScanBatch3KRules'

# Go lines per package, non-test and test, and the data-path/support split
# of the total, so a change's effect on the code's size is one number in
# this log.
step "lines of Go per package"
scripts/loc.sh

if [ "$MODE" = "quick" ]; then
    echo "quick gate passed."
    exit 0
fi

# Three-party tracing over loopback, under the race detector: traced
# client/middlebox/server sessions must each assemble into one rooted,
# orphan-free span tree with critical path <= wall-clock, carry every §3.3
# sub-span, and those sub-spans must cover >= 90% of the middlebox's
# preparation window. bbtrace -assemble -strict has golden tests of its own.
step "three-party tracing (trace e2e -race)"
go test -race -count=1 -run TestE2ETraceTreeProperties .

# The AES-128 kernel has two build-tagged implementations (assembly on
# amd64, crypto/aes elsewhere and under -tags purego). The host only ever
# runs one of them, so run the token path on the other — and the garbling
# path, whose hash rides on the same kernel: the middlebox compares circuits
# garbled on different machines bit for bit, so the fallback must produce
# the same ones — and OT, whose row hash rides on it too, and cross-build a
# platform that has no assembly; both work offline.
step "portable AES fallback (-tags purego) + arm64 cross-build"
go test -tags purego ./internal/bbcrypto ./internal/dpienc ./internal/core \
    ./internal/garble ./internal/ot ./internal/ruleprep
GOARCH=arm64 go build ./...

step "go test -race"
go test -race ./...

# The middlebox's detection pool has GOMAXPROCS shards, so on one core it
# is a single shard that every flow shares: run the middlebox tests and the
# suites that stall a shard on purpose there too.
step "one-proc middlebox (GOMAXPROCS=1)"
GOMAXPROCS=1 go test ./internal/middlebox
GOMAXPROCS=1 go test -run 'TestChaos|TestFleet' .

# Chaos suite under the race detector: every injected fault (stall, reset,
# corruption, truncation) must end in a clean typed outcome, never a hang —
# the -timeout is the wall-clock backstop that turns a hang into a failure.
step "chaos suite (-race)"
go test -race -run 'TestChaos' -timeout 5m .

# Adversarial scenarios: the evasion suite runs as live loopback sessions
# under the race detector (an undeclared miss, an undocumented miss class,
# or a false alert fails the test). The offline per-case verdicts are
# tier-1's: go test ./internal/evasion.
step "adversarial scenarios (evasion e2e -race)"
go test -race -run 'TestEvasionE2E' -timeout 10m .

# Fleet observability plane over two layers. First the in-process e2e
# under the race detector: three live workers, /cluster/metrics rollups
# equal to the sum of per-worker Middlebox.Stats() to the digit, one
# acyclic cross-worker trace, and a chaos-injected degradation flipping
# the SLO verdict. Then the real binaries: one bbserver, three bbmb
# workers with admin endpoints, bbclient traffic through each, and
# `bbfleet -check -json` must exit 0 with all three workers up and the
# fleet tokens_scanned_total equal to the sum of the per-worker totals.
step "fleet observability (fleet e2e -race + bbfleet -check over live workers)"
go test -race -run 'TestFleetObservabilityPlane' -timeout 5m .

FLEETDIR="$(mktemp -d)"
FLEET_PIDS=()
cleanup() {
    if [ "${#FLEET_PIDS[@]}" -gt 0 ]; then
        kill "${FLEET_PIDS[@]}" 2>/dev/null || true
    fi
    rm -rf "$FLEETDIR"
}
trap cleanup EXIT
go build -o "$FLEETDIR" ./cmd/bbrulegen ./cmd/bbserver ./cmd/bbmb ./cmd/bbclient ./cmd/bbfleet
"$FLEETDIR/bbrulegen" -dataset "Snort Emerging Threats (HTTP)" -n 20 -out "$FLEETDIR/fleet"
"$FLEETDIR/bbserver" -listen 127.0.0.1:19600 -rgconfig "$FLEETDIR/fleet.endpoint.json" \
    > "$FLEETDIR/server.log" 2>&1 &
FLEET_PIDS+=($!)
for i in 1 2 3; do
    "$FLEETDIR/bbmb" -listen "127.0.0.1:1960$i" -forward 127.0.0.1:19600 \
        -rules "$FLEETDIR/fleet.rules.json" -rgconfig "$FLEETDIR/fleet.rg.json" \
        -admin "127.0.0.1:1961$i" -worker "w$i" > "$FLEETDIR/w$i.log" 2>&1 &
    FLEET_PIDS+=($!)
done
# bbclient -retries rides out worker start-up; one session per worker so
# every admin endpoint carries nonzero totals before the check.
for i in 1 2 3; do
    "$FLEETDIR/bbclient" -addr "127.0.0.1:1960$i" -rgconfig "$FLEETDIR/fleet.endpoint.json" \
        -retries 5 > /dev/null
done
"$FLEETDIR/bbfleet" -check -json -retries 5 \
    -workers w1=127.0.0.1:19611,w2=127.0.0.1:19612,w3=127.0.0.1:19613 \
    > "$FLEETDIR/fleet-report.json"
grep -q '"ok": true' "$FLEETDIR/fleet-report.json"
[ "$(grep -c '"state": "up"' "$FLEETDIR/fleet-report.json")" -eq 3 ]
# The report lists per-worker totals then the fleet rollup (last): the
# rollup must equal the sum — the same exactness contract the e2e pins
# against /cluster/metrics.
awk -F': ' '/"tokens_scanned_total"/ { gsub(/,/, "", $2); v[n++] = $2 }
    END {
        if (n < 4) { printf "fleet check: %d tokens_scanned_total rows, want 4\n", n; exit 1 }
        sum = 0; for (i = 0; i < n - 1; i++) sum += v[i]
        if (sum == 0 || sum != v[n-1]) {
            printf "fleet tokens_scanned_total %s != worker sum %d\n", v[n-1], sum; exit 1
        }
        printf "fleet tokens_scanned_total %d == sum of %d workers\n", v[n-1], n-1
    }' "$FLEETDIR/fleet-report.json"

# Fuzz smoke: each corpus gets a short budget. `go test -fuzz` accepts a
# single fuzz target per invocation, so loop over every target explicitly.
# Minimizing a new input may take 60 s by default, so a short budget can go
# to minimizing one input while nothing executes; each input gets
# FUZZMINIMIZE instead, and each target's exec count is printed at the end
# so a target that barely ran shows.
FUZZMINIMIZE=1s
step "fuzz smoke (${FUZZTIME} per target, ${FUZZMINIMIZE} per minimization)"
FUZZEXECS=()
while read -r pkg target; do
    echo "--- ${pkg} ${target}"
    go test -run '^$' -fuzz "^${target}\$" -fuzztime "$FUZZTIME" \
        -fuzzminimizetime "$FUZZMINIMIZE" "$pkg" 2>&1 | tee "$FLEETDIR/fuzz.log"
    execs="$(grep -o 'execs: [0-9]*' "$FLEETDIR/fuzz.log" | tail -n 1 | cut -d' ' -f2)"
    FUZZEXECS+=("${execs:-0} execs  ${pkg} ${target}")
done <<'EOF'
./internal/tokenize FuzzStreamingEquivalence
./internal/tokenize FuzzSplitKeywordConsistency
./internal/tokenize FuzzEvasionTokenizeDetect
./internal/tokenize FuzzTokenizeMatchesModel
./internal/rules FuzzParseRule
./internal/rules FuzzParse
./internal/garble FuzzUnmarshal
./internal/ruleprep FuzzUnmarshalCircuitMsg
./internal/ot FuzzOTMessages
./internal/transport FuzzUnmarshalHello
./internal/transport FuzzUnmarshalTokens
./internal/ruleprep FuzzServe
./internal/transport FuzzReadRecord
./internal/dpienc FuzzEncryptRecoverRoundTrip
./internal/dpienc FuzzCounterResetSync
./internal/detect FuzzIndexConsistency
./internal/baseline FuzzStreamMatchesInspect
./internal/obs FuzzSamplerDecision
./internal/obs/agg FuzzDecode
EOF
printf '%s\n' "${FUZZEXECS[@]}"

echo
echo "full gate passed."
