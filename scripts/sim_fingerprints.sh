#!/bin/sh
# Print the "sim" fingerprint of every simulation the cache/bus/CPU counters
# golden pins (tests/golden/sim_fingerprints.txt): `detscope metrics --cores 3`
# for each built-in routine at --wa on and --wa off, and
# `bench_simspeed --probe-only --probe-reps 1`. Each fingerprint hashes the
# whole "sim" subtree of the stlperf report — per-core cache hits, misses,
# refills and writebacks, bus grants and CPU counters included.
#
# Usage: scripts/sim_fingerprints.sh DETSCOPE STLINT BENCH_SIMSPEED
# The ctest `golden.sim_fingerprints` diffs this output against the golden.
set -eu
detscope=$1
stlint=$2
simspeed=$3

fingerprint() {
  sed -n 's/.*"fingerprint": "\(0x[0-9a-f]*\)".*/\1/p' "$1"
}

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT

routines=$("$stlint" --list | sed -n '/^routines:/,/^fixtures:/s/^  \([^ ]*\)$/\1/p')
for r in $routines; do
  for wa in on off; do
    "$detscope" metrics --cores 3 --routine "$r" --wa "$wa" --out "$d/m.json"
    echo "detscope metrics --cores 3 --routine $r --wa $wa $(fingerprint "$d/m.json")"
  done
done
"$simspeed" --probe-only --probe-reps 1 --metrics-out "$d/p.json" > /dev/null
echo "bench_simspeed --probe-only --probe-reps 1 $(fingerprint "$d/p.json")"
