#!/usr/bin/env bash
# Regenerates the golden artifacts pinned by tests/test_contract_golden.cpp
# (stored contracts), tests/test_report_golden.cpp (monitor reports and a
# delta stream) and tests/test_cli_help.cpp (usage text). Run this ONLY
# when an output change is intentional (new cost model, schema bump, ...),
# and say why in the commit message — the goldens are the shipped operator
# artifacts, and the report goldens pin every measured column (IC, MA and
# the conservative cycle meter) byte for byte.
#
# Usage: tools/regen_goldens.sh [build-dir]
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-build}"
CLI="$BUILD_DIR/bolt_cli"

if [[ ! -x "$CLI" ]]; then
  echo "error: $CLI not found (build first)" >&2
  exit 1
fi

for nf in bridge nat lb lpm router fw+router firewall nat-b lpm-simple; do
  "$CLI" contract "$nf" --out "$REPO_ROOT/tests/data/contract_${nf}.json"
done

# Monitor report goldens: small fixed workloads, contracts generated
# in-process. Exit 1 (violations) and 3 (drift alert) are results, not
# errors; anything else is.
monitor() {
  local rc=0
  "$CLI" monitor "$@" > /dev/null || rc=$?
  if [[ $rc -ne 0 && $rc -ne 1 && $rc -ne 3 ]]; then
    echo "error: bolt_cli monitor $* exited $rc" >&2
    exit 1
  fi
}
DATA="$REPO_ROOT/tests/data"
monitor nat --workload zipf --packets 20000 --report "$DATA/report_nat.json"
monitor router --workload drift --packets 20000 --delta-every 1 \
  --delta-out "$DATA/deltas_router.jsonl" --report "$DATA/report_router.json"
monitor lb --packets 20000 --report "$DATA/report_lb.json"
monitor fw+router --workload uniform --packets 20000 \
  --report "$DATA/report_fw_router.json"
# Violations: NAT measured with rx/tx framework costs 50% above the
# contract's, so every IC and MA bound of the hot class fails.
monitor nat --workload zipf --packets 20000 --inflate 50 --delta-every 1 \
  --delta-out "$DATA/deltas_nat_inflated.jsonl" \
  --report "$DATA/report_nat_inflated.json"

# CLI help golden (tests/test_cli_help.cpp).
"$CLI" --help > "$REPO_ROOT/tests/data/cli_usage.txt"
