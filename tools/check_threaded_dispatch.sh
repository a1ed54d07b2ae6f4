#!/usr/bin/env bash
# Dispatch-site gate for the superblock executor. Core::exec_trace ends
# every handler with its own indirect jump to the next op's handler
# (docs/EXECUTION.md, "Dispatch sites"). A compiler pass that merges
# those identical tails -- GCC's cross-jumping, which src/np/CMakeLists.txt
# turns off for core_trace.cpp -- leaves the code correct but puts most
# handlers back on a few shared indirect branches, and the packet rate
# drops (by about 9% on cm-attack). No test sees that, so this script
# counts the sites in the optimised perfbench binary: it finds
# Core::exec_trace with `nm -S`, disassembles exactly that address range
# with objdump, and fails when fewer than MIN_SITES indirect `jmp *`
# instructions remain. The executor with install-time handler selection
# (the variants and fused pairs) reads 53; one that dispatches on the
# op alone, without them, reads 45 and fails.
#
# Usage:  tools/check_threaded_dispatch.sh [binary]
#         binary defaults to .bench_build/perfbench, built first the way
#         perfbench/run.py builds it.
# Exit:   0 when exec_trace has at least MIN_SITES indirect jumps,
#         1 otherwise (or when the symbol cannot be found).
set -euo pipefail

MIN_SITES=48

repo="$(cd "$(dirname "$0")/.." && pwd)"
binary="${1:-}"
if [ -z "$binary" ]; then
  binary="$repo/.bench_build/perfbench"
  python3 -c "import sys; sys.path.insert(0, sys.argv[1]); import run; \
sys.exit(0 if run.build() else 1)" "$repo/perfbench" >/dev/null
fi

# nm -S -C prints "address size type name"; exec_trace is the one text
# (T/t) symbol of that name -- its handler table is a data symbol.
read -r addr size < <(nm -S -C "$binary" |
  awk '$3 ~ /^[Tt]$/ && / sdmmon::np::Core::exec_trace\(/ { print $1, $2; exit }') || true
if [ -z "${addr:-}" ] || [ -z "${size:-}" ]; then
  echo "check_threaded_dispatch: Core::exec_trace not found in $binary" >&2
  exit 1
fi
start=$((16#$addr))
stop=$((start + 16#$size))

sites="$(objdump -d --no-show-raw-insn \
           --start-address="$start" --stop-address="$stop" "$binary" |
         grep -cE $'\tjmp +\\*' || true)"
printf 'check_threaded_dispatch: exec_trace at 0x%x (%d bytes): %d indirect jmp sites (need >= %d)\n' \
  "$start" "$((16#$size))" "$sites" "$MIN_SITES"
if [ "$sites" -lt "$MIN_SITES" ]; then
  echo "check_threaded_dispatch: too few dispatch sites (handler tails merged, or handlers missing); see docs/EXECUTION.md" >&2
  exit 1
fi
