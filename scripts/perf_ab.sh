#!/usr/bin/env bash
# Same-runner A/B sim-MHz gate: build bench_simspeed at <base-ref> and at the
# working tree, run the fixed-work probe RUNS times per side, interleaved
# (the side that goes first alternates, so host drift hits both alike), and
# gate the median HEAD report against the median base report with
# `stlperf check --threshold 15`.
#
# Both sides run the same workload, so their sim subtrees must be identical;
# a difference fails the gate as a determinism break (exit 1). The committed
# bench/baselines/BENCH_simspeed.json stays the sim-subtree reference across
# hosts; this script is the timing reference.
#
# Outputs in the current directory: BENCH_simspeed.json (HEAD median) and
# BENCH_simspeed_base.json (base median). Build trees go to a temporary
# directory under ${TMPDIR:-/tmp}, removed on exit.
#
# Usage: scripts/perf_ab.sh <base-ref>
# Exit: 0 within threshold, 1 regression or sim divergence, 2 usage/build.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: scripts/perf_ab.sh <base-ref>" >&2
  exit 2
fi
BASE_REF="$1"
RUNS=5
REPS=300
THRESHOLD=15

REPO="$(cd "$(dirname "$0")/.." && pwd)"
OUT="$PWD"
WORK="$(mktemp -d "${TMPDIR:-/tmp}/perf-ab.XXXXXX")"
trap 'rm -rf "$WORK"' EXIT

build() {  # build <src> <build-dir> <targets...>; the log is shown on failure
  local src="$1" dir="$2"
  shift 2
  if ! { cmake -S "$src" -B "$dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo &&
         cmake --build "$dir" -j"$(nproc)" --target "$@"; } > "$dir.log" 2>&1; then
    cat "$dir.log" >&2
    echo "perf-ab: build of $src failed" >&2
    exit 2
  fi
}

mkdir -p "$WORK/base-src"
if ! git -C "$REPO" archive "$BASE_REF" | tar -x -C "$WORK/base-src"; then
  echo "perf-ab: cannot export $BASE_REF" >&2
  exit 2
fi
echo "perf-ab: building $BASE_REF and HEAD"
build "$WORK/base-src" "$WORK/base" bench_simspeed
build "$REPO" "$WORK/head" bench_simspeed stlperf

probe() {  # probe <side> <run>
  "$WORK/$1/bench/bench_simspeed" --probe-only --probe-reps "$REPS" \
    --metrics-out "$WORK/$1-$2.json" > /dev/null 2> "$WORK/probe.log" ||
    { cat "$WORK/probe.log" >&2; exit 2; }
}
sim_mhz() { sed -n 's/.*"sim_mhz": \([0-9.]*\).*/\1/p' "$1" | head -n 1; }

for run in $(seq 1 "$RUNS"); do
  if [ $((run % 2)) -eq 1 ]; then
    probe base "$run"; probe head "$run"
  else
    probe head "$run"; probe base "$run"
  fi
  echo "perf-ab: run $run: base $(sim_mhz "$WORK/base-$run.json")" \
       "head $(sim_mhz "$WORK/head-$run.json") sim-MHz"
done

median() {  # median <side>: the report with the median sim-MHz
  for f in "$WORK/$1"-*.json; do echo "$(sim_mhz "$f") $f"; done |
    sort -n | sed -n "$(((RUNS + 1) / 2))p" | cut -d' ' -f2
}
cp "$(median base)" "$OUT/BENCH_simspeed_base.json"
cp "$(median head)" "$OUT/BENCH_simspeed.json"

"$WORK/head/tools/stlperf" check "$OUT/BENCH_simspeed.json" \
  --baseline "$OUT/BENCH_simspeed_base.json" --threshold "$THRESHOLD"
