#!/usr/bin/env bash
# Bench regression gate. Compares the BENCH_*.json reports from a fresh
# bench run against the committed baselines in bench/baselines/ and
# fails when any throughput-class figure fell below THRESHOLD times its
# baseline value (default 0.75, i.e. a >25% regression).
#
# Matching rules
#   * Reports pair by filename (BENCH_<name>.json).
#   * Rows pair by their first string-valued field (the row key, e.g.
#     "app"); rows without a string field pair by position.
#   * Only higher-is-better fields are compared: names matching
#     kpps / mpps / minstr_s / _per_s / throughput / speedup /
#     pkts_per_rollback_byte (more packets per byte of rollback work
#     means cheaper dirty-page snapshots).
#     Latency- and size-class fields are deliberately ignored -- the
#     gate exists to catch throughput regressions, not to freeze every
#     number in place.
#   * Exact-class fields must equal the baseline (relative tolerance
#     1e-9) in quick and full mode alike: dispatches_per_pkt,
#     side_exit_rate and summary_join_rate (X1c, computed from a fixed
#     counting pass at any budget), and Table 2's per-step primitive-op
#     counts limb_muls, aes_blocks, sha256_blocks and modexps (the only
#     input of the Nios II cost model). They are deterministic cost
#     counters, so any change is a behavioural change, fast or not;
#     re-record the baseline when it is intended.
#
# Quick mode: when SDMMON_BENCH_QUICK is set (the CI bench-smoke job),
# timing on shared runners is meaningless, so the script only verifies
# the wiring -- every baseline has a fresh counterpart, the reports
# parse, and every baseline throughput field still exists in the fresh
# report. Ratio violations are printed as warnings but do not fail;
# exact-class mismatches still fail.
# Run without SDMMON_BENCH_QUICK on a quiet machine to enforce ratios.
#
# Usage:  tools/check_bench_regression.sh CURRENT_DIR [BASELINE_DIR] [THRESHOLD]
# Exit:   0 when every check passes, 1 otherwise (all failures listed).
set -u

repo="$(cd "$(dirname "$0")/.." && pwd)"
current_dir="${1:?usage: check_bench_regression.sh CURRENT_DIR [BASELINE_DIR] [THRESHOLD]}"
baseline_dir="${2:-$repo/bench/baselines}"
threshold="${3:-0.75}"

if [ ! -d "$baseline_dir" ]; then
  echo "check_bench_regression: no baseline directory $baseline_dir" >&2
  exit 1
fi

CURRENT_DIR="$current_dir" BASELINE_DIR="$baseline_dir" \
THRESHOLD="$threshold" python3 - <<'PY'
import json
import math
import os
import re
import sys

current_dir = os.environ["CURRENT_DIR"]
baseline_dir = os.environ["BASELINE_DIR"]
threshold = float(os.environ["THRESHOLD"])
quick = bool(os.environ.get("SDMMON_BENCH_QUICK"))

THROUGHPUT = re.compile(
    r"(kpps|mpps|minstr_s|_per_s|throughput|speedup|pkts_per_rollback_byte)"
)
EXACT = re.compile(
    r"^(dispatches_per_pkt|side_exit_rate|summary_join_rate"
    r"|limb_muls|aes_blocks|sha256_blocks|modexps)$"
)
EXACT_REL_TOL = 1e-9

failures = []
warnings = []
compared = 0
compared_exact = 0


def row_keys(rows):
    # A report may repeat a row name across sections (e.g. an "app"
    # measured by two experiments); disambiguate repeats by occurrence
    # so both sides pair deterministically.
    seen = {}
    keys = []
    for index, row in enumerate(rows):
        key = f"row[{index}]"
        for name, value in row.items():
            if isinstance(value, str):
                key = f"{name}={value}"
                break
        occurrence = seen.get(key, 0)
        seen[key] = occurrence + 1
        keys.append(key if occurrence == 0 else f"{key}#{occurrence + 1}")
    return keys


def load(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != 1 or not isinstance(doc.get("rows"), list):
        raise ValueError("not a schema-1 BENCH report")
    return doc


def numeric_fields(mapping):
    return {
        key: value
        for key, value in mapping.items()
        if isinstance(value, (int, float))
        and not isinstance(value, bool)
        and (THROUGHPUT.search(key) or EXACT.search(key))
    }


def compare(name, where, base_fields, cur_fields):
    global compared, compared_exact
    for key, base in base_fields.items():
        if key not in cur_fields:
            failures.append(f"{name} {where}: field '{key}' missing from fresh report")
            continue
        if EXACT.search(key):
            compared_exact += 1
            if not math.isclose(cur_fields[key], base, rel_tol=EXACT_REL_TOL):
                failures.append(
                    f"{name} {where}: exact field {key} changed "
                    f"({cur_fields[key]!r} vs baseline {base!r})"
                )
            continue
        compared += 1
        if base <= 0:
            continue
        ratio = cur_fields[key] / base
        if ratio < threshold:
            msg = (
                f"{name} {where}: {key} regressed to {ratio:.2f}x of baseline "
                f"({cur_fields[key]:.4g} vs {base:.4g}, floor {threshold}x)"
            )
            (warnings if quick else failures).append(msg)


baselines = sorted(
    f for f in os.listdir(baseline_dir)
    if f.startswith("BENCH_") and f.endswith(".json")
)
if not baselines:
    print(f"check_bench_regression: no baselines in {baseline_dir}", file=sys.stderr)
    sys.exit(1)

for fname in baselines:
    name = fname[len("BENCH_"):-len(".json")]
    cur_path = os.path.join(current_dir, fname)
    if not os.path.exists(cur_path):
        failures.append(f"{name}: baseline exists but no fresh {fname} in {current_dir}")
        continue
    try:
        base_doc = load(os.path.join(baseline_dir, fname))
        cur_doc = load(cur_path)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        failures.append(f"{name}: unreadable report ({exc})")
        continue

    compare(name, "meta", numeric_fields(base_doc.get("meta", {})),
            numeric_fields(cur_doc.get("meta", {})))

    cur_rows = dict(zip(row_keys(cur_doc["rows"]), cur_doc["rows"]))
    for key, base_row in zip(row_keys(base_doc["rows"]), base_doc["rows"]):
        cur_row = cur_rows.get(key)
        if cur_row is None:
            failures.append(f"{name}: baseline row '{key}' missing from fresh report")
            continue
        compare(name, key, numeric_fields(base_row), numeric_fields(cur_row))

for msg in warnings:
    print(f"check_bench_regression: WARN (quick mode, not enforced): {msg}")
for msg in failures:
    print(f"check_bench_regression: FAIL: {msg}", file=sys.stderr)

mode = "quick/wiring" if quick else f"enforcing (floor {threshold}x)"
print(
    f"check_bench_regression: {len(baselines)} baseline report(s), "
    f"{compared} throughput field(s) and {compared_exact} exact field(s) "
    f"checked, mode: {mode}"
)
sys.exit(1 if failures else 0)
PY
