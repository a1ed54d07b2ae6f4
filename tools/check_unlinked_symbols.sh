#!/usr/bin/env bash
# Dead-code gate: every sdmmon:: function the libraries define must be
# linked into some binary that is not a test, or be listed with a reason
# in tools/test_only_symbols.txt.
#
# Method: an -O0 build (nothing inlined away) with one section per
# function and --gc-sections at link time, of every bench, example and
# tool plus the standalone perfbench binary. The T/W symbols of the
# sdmmon_* archives that name a function in namespace sdmmon are
# compared against the symbols those binaries still define after the
# linker dropped every unreferenced section.
#
# Fails (exit 1) on
#   - an unlinked symbol that the allowlist does not name,
#   - a stale allowlist entry: one that is linked, or no longer defined,
#   - an allowlist entry without a reason, or listed twice.
#
# The allowlist holds one "symbol<TAB>reason" per line, with the symbol
# exactly as `nm -C` prints it; blank lines and '#' lines are ignored.
#
# Usage:  tools/check_unlinked_symbols.sh [build-dir]
#         (default build dir: build-unlinked at the repo root)
set -euo pipefail
export LC_ALL=C  # one collation for sort, uniq and comm

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$repo/build-unlinked}"
allow="$repo/tools/test_only_symbols.txt"
jobs="$(nproc 2>/dev/null || echo 2)"
flags=(-DCMAKE_BUILD_TYPE=O0GC
       "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections"
       "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections")

mkdir -p "$build"
log="$build/build.log"
: >"$log"
run() {
  if ! "$@" >>"$log" 2>&1; then
    tail -n 40 "$log" >&2
    echo "check_unlinked_symbols: build failed (full log: $log)" >&2
    exit 1
  fi
}
run cmake -S "$repo" -B "$build/main" -G "Unix Makefiles" "${flags[@]}"
for dir in bench examples tools; do
  run make -s -C "$build/main/$dir" -j"$jobs" all
done
run cmake -S "$repo/perfbench" -B "$build/perfbench" -G "Unix Makefiles" \
  "${flags[@]}"
run make -s -C "$build/perfbench" -j"$jobs" perfbench

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# Names are compared demangled, so a constructor or destructor counts as
# linked when any of its ABI variants is. Only functions declared in
# namespace sdmmon are considered (mangled _ZN[cv-ref]6sdmmon...), not std
# templates instantiated on sdmmon types.
sdmmon_names() {
  awk '{ print $NF }' | grep -E '^_ZN[KVRO]*6sdmmon' | c++filt | sort -u
}

# Defined T/W symbols of the library archives.
find "$build/main/src" -name 'libsdmmon_*.a' -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk '$2 == "T" || $2 == "W"' | sdmmon_names >"$tmp/defined"

# Every symbol any non-test binary still defines after --gc-sections.
bins=("$build/perfbench/perfbench")
while IFS= read -r -d '' bin; do bins+=("$bin"); done < <(
  find "$build/main/bench" "$build/main/examples" "$build/main/tools" \
    -maxdepth 1 -type f -perm -u+x -print0)
nm --defined-only "${bins[@]}" 2>/dev/null | sdmmon_names >"$tmp/linked"

comm -23 "$tmp/defined" "$tmp/linked" >"$tmp/unlinked"
grep -v -e '^#' -e '^[[:space:]]*$' "$allow" >"$tmp/entries" || true
cut -f1 "$tmp/entries" | sort >"$tmp/allowed"

status=0
if dups="$(uniq -d "$tmp/allowed")" && [ -n "$dups" ]; then
  echo "check_unlinked_symbols: listed more than once in $allow:" >&2
  sed 's/^/  /' <<<"$dups" >&2
  status=1
fi
if noreason="$(awk -F'\t' 'NF < 2 || $2 ~ /^[[:space:]]*$/' "$tmp/entries")" &&
   [ -n "$noreason" ]; then
  echo "check_unlinked_symbols: allowlist entries without a reason:" >&2
  sed 's/^/  /' <<<"$noreason" >&2
  status=1
fi
sort -u "$tmp/allowed" -o "$tmp/allowed"
if new="$(comm -23 "$tmp/unlinked" "$tmp/allowed")" && [ -n "$new" ]; then
  echo "check_unlinked_symbols: defined in src/ but linked into no binary" \
       "(delete, or list in $allow with a reason):" >&2
  sed 's/^/  /' <<<"$new" >&2
  status=1
fi
if stale="$(comm -13 "$tmp/unlinked" "$tmp/allowed")" && [ -n "$stale" ]; then
  echo "check_unlinked_symbols: stale allowlist entries (now linked, or no" \
       "longer defined):" >&2
  sed 's/^/  /' <<<"$stale" >&2
  status=1
fi
if [ "$status" -eq 0 ]; then
  echo "check_unlinked_symbols: $(wc -l <"$tmp/unlinked") unlinked symbols," \
       "all listed in $allow"
fi
exit "$status"
