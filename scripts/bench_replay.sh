#!/usr/bin/env bash
# Times the fig09 + fig10 replay grids serially and in parallel and writes
# BENCH_replay.json so the replay harness's wall-clock trajectory (and the
# parallel speedup) is tracked PR over PR. Also runs the event-core
# micro-benchmarks (IdSlotMap vs unordered_map churn) and publishes them
# under an event_core section.
#
# Usage: scripts/bench_replay.sh [output.json]
#   BUILD_DIR=build          cmake build directory (configured if missing)
#   REPLAY_THREADS=<n>       parallel worker count (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${BUILD_DIR:-build}"
OUT="${1:-BENCH_replay.json}"
THREADS="${REPLAY_THREADS:-$(nproc)}"

if [[ ! -d "$BUILD_DIR" ]]; then
  cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "$BUILD_DIR" -j --target fig09_trace_replay fig10_tail_latency micro_simulator

now_ms() { echo $(($(date +%s%N) / 1000000)); }

# run_one <bench> <threads> <json-out>: runs the bench once, returns (echoes)
# its wall-clock in ms; per-cell times land in the google-benchmark JSON.
run_one() {
  local bench="$1" threads="$2" json="$3"
  local start end
  start=$(now_ms)
  DESICCANT_REPLAY_THREADS="$threads" "$BUILD_DIR/bench/$bench" \
    --benchmark_out="$json" --benchmark_out_format=json > /dev/null
  end=$(now_ms)
  echo $((end - start))
}

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

declare -A serial_ms parallel_ms
for bench in fig09_trace_replay fig10_tail_latency; do
  echo "== $bench serial (1 thread)"
  serial_ms[$bench]=$(run_one "$bench" 1 "$workdir/$bench.serial.json")
  echo "   ${serial_ms[$bench]} ms"
  echo "== $bench parallel ($THREADS threads)"
  parallel_ms[$bench]=$(run_one "$bench" "$THREADS" "$workdir/$bench.parallel.json")
  echo "   ${parallel_ms[$bench]} ms"
done

echo "== event-core micro-benchmarks"
"$BUILD_DIR/bench/micro_simulator" \
  --benchmark_filter='BM_(IdSlotMap|UnorderedMap)Churn' \
  --benchmark_out="$workdir/event_core.json" --benchmark_out_format=json > /dev/null

jq -n \
  --arg threads "$THREADS" \
  --arg host_cores "$(nproc)" \
  --arg fig09_serial "${serial_ms[fig09_trace_replay]}" \
  --arg fig09_parallel "${parallel_ms[fig09_trace_replay]}" \
  --arg fig10_serial "${serial_ms[fig10_tail_latency]}" \
  --arg fig10_parallel "${parallel_ms[fig10_tail_latency]}" \
  --slurpfile fig09_cells "$workdir/fig09_trace_replay.parallel.json" \
  --slurpfile fig10_cells "$workdir/fig10_tail_latency.parallel.json" \
  --slurpfile event_core "$workdir/event_core.json" \
  '
  def cells(doc): [doc.benchmarks[]
    | select(.name | startswith("replay_grid/meta") | not)
    | {name, real_time_ms: (.real_time * 1e3 | round / 1e3)}];
  def effective(doc): [doc.benchmarks[]
    | select(.name | startswith("replay_grid/meta")) | .threads][0];
  {
    threads: ($threads | tonumber),
    # The harness clamps oversubscribed requests to the host core count; this
    # is what actually ran (from the replay_grid/meta benchmark counters).
    effective_threads: (effective($fig09_cells[0]) // ($threads | tonumber)),
    host_cores: ($host_cores | tonumber),
    fig09: {
      serial_ms: ($fig09_serial | tonumber),
      parallel_ms: ($fig09_parallel | tonumber),
      speedup: (($fig09_serial | tonumber) / ($fig09_parallel | tonumber) * 100 | round / 100),
      cells: cells($fig09_cells[0])
    },
    fig10: {
      serial_ms: ($fig10_serial | tonumber),
      parallel_ms: ($fig10_parallel | tonumber),
      speedup: (($fig10_serial | tonumber) / ($fig10_parallel | tonumber) * 100 | round / 100),
      cells: cells($fig10_cells[0])
    },
    total: {
      serial_ms: (($fig09_serial | tonumber) + ($fig10_serial | tonumber)),
      parallel_ms: (($fig09_parallel | tonumber) + ($fig10_parallel | tonumber)),
      speedup: ((($fig09_serial | tonumber) + ($fig10_serial | tonumber)) /
                (($fig09_parallel | tonumber) + ($fig10_parallel | tonumber)) * 100 | round / 100)
    },
    # ns/op for the event-core structures; informational (host-dependent),
    # not gated. heap_allocs_per_op shows each map's allocation traffic.
    event_core: [$event_core[0].benchmarks[]
      | {name,
         ns_per_op: (.real_time | round),
         heap_allocs_per_op: (.heap_allocs_per_op // null)}]
  }' > "$OUT"

echo "wrote $OUT"
