#!/usr/bin/env bash
# Performance-tracking harness: runs the hot-path benchmarks (training
# engine, dataset generation, batched inference, matrix kernels) with
# -benchmem, snapshots the results as BENCH_<date>.json via
# cmd/benchdiff, and prints the drift against the most recent previous
# snapshot. Committed BENCH_*.json files form the repo's performance
# trajectory.
#
# Each benchmark runs -count times (default 3); cmd/benchdiff folds the
# repeats to the minimum ns/op — the least-noise estimate on a shared
# box — and the maximum B/op and allocs/op. A second pass re-runs the
# parallel-sensitive benchmarks (training engine, dataset generation)
# at GOMAXPROCS=BENCH_MP so the snapshot also tracks scaling; go test
# suffixes those names with -N, so they land as separate entries. The
# pass is skipped on machines with fewer than BENCH_MP CPUs, where it
# would measure oversubscription rather than scaling.
#
# Environment knobs:
#   BENCH_DATE=YYYYMMDD  snapshot stamp (default: today)
#   BENCH_TIME=<n>x|<t>s benchtime passed to go test (default 1s —
#                        fixed tiny iteration counts quantize the
#                        ns-scale kernel benchmarks and skew per-op
#                        allocation amortization, making snapshots
#                        incomparable; use 3x only for a quick
#                        uncommitted look)
#   BENCH_COUNT=<n>      repeats per benchmark (default 3)
#   BENCH_MP=<n>         GOMAXPROCS for the scaling pass (default 4;
#                        0 skips the pass, as does a machine with
#                        fewer than n CPUs)
set -euo pipefail
cd "$(dirname "$0")/.."

DATE="${BENCH_DATE:-$(date +%Y%m%d)}"
STAMP="$DATE"
OUT="BENCH_${STAMP}.json"
# Same-day reruns must not clobber an already-committed snapshot — that
# would silently rewrite the perf trajectory the regression gate replays.
# Suffix repeat runs b..z instead (BENCH_20260808.json, then
# BENCH_20260808b.json, ...), matching the stamps benchdiff derives from
# the filename.
if [[ -e "$OUT" ]]; then
  for s in b c d e f g h i j k l m n o p q r s t u v w x y z; do
    if [[ ! -e "BENCH_${DATE}${s}.json" ]]; then
      STAMP="${DATE}${s}"
      OUT="BENCH_${STAMP}.json"
      break
    fi
  done
  if [[ -e "$OUT" ]]; then
    echo "bench: all snapshot suffixes for ${DATE} are taken; set BENCH_DATE" >&2
    exit 1
  fi
fi
BENCHTIME="${BENCH_TIME:-1s}"
COUNT="${BENCH_COUNT:-3}"
MP="${BENCH_MP:-4}"

# Most recent previous snapshot, if any, for the delta report.
PREV="$(ls BENCH_*.json 2>/dev/null | grep -v "^${OUT}\$" | sort | tail -1 || true)"

TMP="$(mktemp)"
trap 'rm -f "$TMP"' EXIT

# Root package: dataset generation, batched inference, the online phase
# (BenchmarkOracleGameOnline), matrix kernels.
# internal/nn: the training engine (BenchmarkFit), the packed first layer's
# kernels (BenchmarkDenseBits) and kernel micro-benchmarks.
# internal/prng: the vectorized positional draw kernels feeding the
# sliced dataset path (BenchmarkSeedStream, BenchmarkDrawBatch).
# internal/gimli + internal/speck + internal/simon + internal/simeck +
# internal/chaskey + internal/gift: the scalar and bitsliced cipher
# kernels behind the per-row and slice-window dataset paths.
# internal/serve: the full HTTP classify path through the
# micro-batching scheduler (BenchmarkServeClassify) and the request
# codec on its own (BenchmarkDecodeRequest).
# internal/ledger: audit-record append throughput (BenchmarkLedgerAppend).
# internal/cluster: the routed classify path — router handler, HTTP hop
# to a replica, micro-batched inference (BenchmarkRouterClassify).
go test . ./internal/nn/ ./internal/prng/ ./internal/gimli/ ./internal/speck/ ./internal/simon/ \
    ./internal/simeck/ ./internal/chaskey/ ./internal/gift/ ./internal/serve/ \
    ./internal/ledger/ ./internal/cluster/ -run '^$' \
    -bench 'Fit|DenseBits|GenerateDataset|PredictBatch|OracleGameOnline|MatMul|Mul128|PermuteRounds|SpeckEncrypt|SimonEncrypt|SimeckEncrypt|ChaskeyPermute|Gift64Encrypt|ServeClassify|DecodeRequest|DrawBatch|SeedStream|LedgerAppend|RouterClassify' \
    -benchtime "$BENCHTIME" -benchmem -count "$COUNT" | tee "$TMP"

# Scaling pass: the sharded hot paths again at GOMAXPROCS>1.
if [[ "$MP" != "0" ]] && (( $(nproc) < MP )); then
  echo "bench: skipping the GOMAXPROCS=$MP scaling pass: only $(nproc) CPUs"
elif [[ "$MP" != "0" ]]; then
  GOMAXPROCS="$MP" go test . ./internal/nn/ -run '^$' \
      -bench 'Fit$|GenerateDataset' \
      -benchtime "$BENCHTIME" -benchmem -count "$COUNT" | tee -a "$TMP"
fi

go run ./cmd/benchdiff -snapshot "$OUT" -date "$STAMP" < "$TMP"
echo "bench: wrote $OUT"

if [ -n "$PREV" ]; then
    go run ./cmd/benchdiff -compare "$PREV" "$OUT"
else
    echo "bench: no previous BENCH_*.json snapshot; nothing to compare"
fi
