#!/usr/bin/env bash
# Deterministic-count gate for the end-to-end benchmark (perfbench/).
# Runs every workload untraced for one second at seed 7 and diffs the
# exact[...] lines it prints against tools/perfbench_exact_seed7.txt.
# Those lines count the first pass through each packet pool -- packets,
# retired instructions, detections, reinstalls, the parallel engine's
# recovery epochs, superblock dispatches, side exits, monitor ambiguity
# and median width -- so they are a function of the seed alone, not of
# the host or the time budget. Any difference is a behavioural change:
# re-record with --update only when it is intended, and say why in the
# commit.
#
# Usage:  tools/check_perfbench_exact.sh [--update]
# Exit:   0 when every line matches (or after --update), 1 otherwise.
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
golden="$repo/tools/perfbench_exact_seed7.txt"
fresh="$(mktemp)"
trap 'rm -f "$fresh"' EXIT

for workload in fwd-min cm-attack reprogram; do
  out="$(python3 "$repo/perfbench/run.py" --workload "$workload" --seed 7 \
           --seconds 1 --trace 0)"
  printf '%s\n' "$out" | grep '^exact\[' | sed "s/^/$workload /" >>"$fresh"
done

if [ "${1:-}" = "--update" ]; then
  cp "$fresh" "$golden"
  echo "check_perfbench_exact: re-recorded $golden"
  exit 0
fi
if diff -u "$golden" "$fresh"; then
  echo "check_perfbench_exact: seed-7 exact counts match"
else
  echo "check_perfbench_exact: seed-7 exact counts differ from $golden" >&2
  exit 1
fi
