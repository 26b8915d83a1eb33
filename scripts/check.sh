#!/usr/bin/env bash
# Tier-1 verify recipe. The -race passes cover the packages this
# repository's concurrency lives in: the sharded dataset generation
# (internal/core), the goroutine-parallel matrix kernels and the
# data-parallel training engine with its byte-identity regression
# tests (internal/nn), the serving layer's micro-batching scheduler
# plus its lock-free metrics (internal/serve, internal/metrics), and
# the cluster router / audit ledger (internal/cluster,
# internal/ledger). On top of the plain test run this script
# executes:
#
#   - a vet and test pass over the perfbench module: it is a nested
#     module, so the root `go build ./...` and `go test ./...` never
#     compile it, and a change to an API it calls would otherwise
#     break the benchmark harness silently;
#   - a GOARCH=386 vet and test pass: the one build in which every
#     *_other.go portable fallback (bitsliced kernels, PRNG draws,
#     transposes, matrix kernels) runs as the only path, and where
#     32-bit int and 64-bit atomic alignment bugs surface;
#   - the internal/testkit conformance suite (KATs for all eight
#     primitives — GIMLI, SPECK, GIFT, Salsa, Trivium, SIMON, SIMECK,
#     Chaskey — property runner self-tests, sampled-vs-exact DP
#     cross-validation), uncached so vectors are really re-evaluated;
#   - a fuzz smoke: each native fuzz target runs for FUZZ_SECONDS
#     (default 10s) of random exploration, skippable with CHECK_FUZZ=0
#     for quick local iteration, and prints its final exec count;
#   - a benchmark smoke (one iteration of the training-engine, packed
#     first-layer kernel, online-phase and serving benchmarks) so
#     BenchmarkFit, BenchmarkDenseBits, BenchmarkOracleGameOnline,
#     BenchmarkServeClassify and BenchmarkDecodeRequest cannot silently
#     rot between full `make bench` runs, skippable with CHECK_BENCH=0;
#   - a coverage gate on ten packages (see the check_cover list at the
#     end) that fails if statement coverage drops below the recorded
#     floors;
#   - a gofmt gate that fails and names every unformatted file.
set -euo pipefail
cd "$(dirname "$0")/.."

unformatted="$(gofmt -l .)"
if [[ -n "$unformatted" ]]; then
  echo "gofmt gate: these files need gofmt -w:" >&2
  echo "$unformatted" >&2
  exit 1
fi
go build ./...
go vet ./...
go test ./...
(cd perfbench && go vet ./... && go test ./...)
GOARCH=386 go vet ./...
GOARCH=386 go test ./...
go test -race ./internal/nn/... ./internal/core/...
go test -race ./internal/serve ./internal/metrics
go test -race ./internal/cluster ./internal/ledger
go test -race ./internal/simon ./internal/simeck ./internal/chaskey

# --- Conformance suite (testkit): run uncached so KATs re-execute.
go test -count=1 ./internal/testkit/

# --- Fuzz smoke: 10s of random exploration per target. Go only
# supports one -fuzz pattern per invocation, so iterate. -run '^$'
# skips the unit tests already covered above. The engine minimizes
# every new input it finds for up to -fuzzminimizetime (60s by
# default), executing nothing new meanwhile, so an unbounded minimizer
# spends most of a 10s budget on one input; 1s bounds that. A crasher
# still fails the gate, only less minimized. Each target's final
# "fuzz: elapsed" line shows how many inputs it ran.
FUZZ_SECONDS="${FUZZ_SECONDS:-10}"
if [[ "${CHECK_FUZZ:-1}" != "0" ]]; then
  for target in \
      "./internal/bits FuzzToFloatsRoundTrip" \
      "./internal/bits FuzzHexRoundTrip" \
      "./internal/bits FuzzBitOps" \
      "./internal/prng FuzzDrawBatch" \
      "./internal/nn FuzzLoadArbitraryBytes" \
      "./internal/nn FuzzSaveLoadRoundTrip" \
      "./internal/core FuzzLoadDistinguisher" \
      "./internal/core FuzzLoadDataset" \
      "./internal/core FuzzSimonEncrypt" \
      "./internal/core FuzzSimeckEncrypt" \
      "./internal/core FuzzChaskeyPermute" \
      "./internal/core FuzzGift64Encrypt" \
      "./internal/ledger FuzzLedgerVerify" \
      "./internal/serve FuzzDecodeRequest"; do
    set -- $target
    echo "fuzz smoke: $1 $2 (${FUZZ_SECONDS}s)"
    if ! out="$(go test "$1" -run '^$' -fuzz "^$2\$" -fuzztime "${FUZZ_SECONDS}s" \
        -fuzzminimizetime 1s 2>&1)"; then
      echo "$out" >&2
      exit 1
    fi
    grep 'fuzz: elapsed' <<<"$out" | tail -n 1 || true
  done
fi

# --- Benchmark smoke: one iteration of the training-engine, packed
# first-layer kernel, online-phase, cipher kernel and serving
# benchmarks keeps them compiling and running; full measurements come from `make bench`
# (scripts/bench.sh). The regression gate then
# replays the two most recent committed BENCH_*.json snapshots through
# benchdiff -max-regress, so a snapshot that records a ns/op regression
# past BENCH_MAX_REGRESS percent (default 100, i.e. >2× slower) cannot
# land silently. Different machines produced different snapshots, hence
# the deliberately loose default; tighten per-run with
# BENCH_MAX_REGRESS=20 ./scripts/check.sh.
if [[ "${CHECK_BENCH:-1}" != "0" ]]; then
  go test ./internal/nn/ -run '^$' -bench 'Fit|DenseBits' -benchtime 1x
  go test . -run '^$' -bench OracleGameOnline -benchtime 1x
  go test ./internal/gimli/ ./internal/speck/ -run '^$' \
      -bench 'PermuteRounds|SpeckEncrypt' -benchtime 1x
  go test ./internal/simon/ ./internal/simeck/ ./internal/chaskey/ ./internal/gift/ -run '^$' \
      -bench 'SimonEncrypt|SimeckEncrypt|ChaskeyPermute|Gift64Encrypt' -benchtime 1x
  go test ./internal/ledger/ ./internal/cluster/ -run '^$' \
      -bench 'LedgerAppend|RouterClassify' -benchtime 1x
  go test ./internal/serve/ -run '^$' -bench 'ServeClassify|DecodeRequest' -benchtime 1x
  mapfile -t SNAPS < <(ls BENCH_*.json 2>/dev/null | sort | tail -2)
  if [[ "${#SNAPS[@]}" -eq 2 ]]; then
    # Allocation counts of the steady-state kernels are deterministic
    # (unlike wall clock), so the allocs/op gate defaults to zero
    # tolerance: a snapshot recording a new steady-state allocation on
    # any benchmark fails the build. The training-engine benchmarks are
    # exempt from the allocation gate (ns/op gate still applies):
    # goroutine stack growth and GC-coupled lazy state land in their
    # allocs/op differently from run to run and box to box, which is
    # measurement noise, not a leak.
    # BenchmarkRouterClassify shares BenchmarkFit's exemption: it
    # crosses a real HTTP hop twice, so its allocs/op carry connection
    # and goroutine churn that varies run to run.
    go run ./cmd/benchdiff -compare -max-regress "${BENCH_MAX_REGRESS:-100}" \
        -max-alloc-regress "${BENCH_MAX_ALLOC_REGRESS:-0}" \
        -alloc-exempt '^BenchmarkFit|^BenchmarkRouterClassify' \
        "${SNAPS[0]}" "${SNAPS[1]}"
  fi
fi

# --- Coverage gate: seed baselines, measured at the PR that introduced
# the gate. Raising coverage moves the floor up in the same commit;
# dropping below it fails the build.
check_cover() {
  local pkg="$1" floor="$2"
  local pct
  pct=$(go test -count=1 -cover "$pkg" | grep -o 'coverage: [0-9.]*%' | grep -o '[0-9.]*')
  if [[ -z "$pct" ]]; then
    echo "coverage gate: could not measure $pkg" >&2
    return 1
  fi
  awk -v p="$pct" -v f="$floor" 'BEGIN { exit !(p+0 < f+0) }' && {
    echo "coverage gate: $pkg at ${pct}% is below the ${floor}% floor" >&2
    return 1
  }
  echo "coverage gate: $pkg ${pct}% (floor ${floor}%)"
}
check_cover ./internal/core    95.0
check_cover ./internal/prng    94.0
check_cover ./internal/nn      93.7
check_cover ./internal/serve   85.0
check_cover ./internal/metrics 90.0
check_cover ./internal/cluster 85.0
check_cover ./internal/ledger  85.0
check_cover ./internal/simon   100.0
check_cover ./internal/simeck  100.0
check_cover ./internal/chaskey 100.0

echo "check.sh: all gates passed"
