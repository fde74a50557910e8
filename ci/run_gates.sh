#!/usr/bin/env bash
# Run every CI bench gate locally against the BENCH_*.json files in the
# repo root — the exact scripts .github/workflows/ci.yml runs, so a green
# run here means the gate steps will be green in CI (given the same
# numbers). Pass gate names to run a subset:
#
#   ci/run_gates.sh                  # all gates
#   ci/run_gates.sh durability trust # just these
#
# Gates read the BENCH file recorded by the matching bench run, e.g.:
#   cargo bench -p tcrowd-bench --bench bench_persistence -- --quick
set -u

cd "$(dirname "$0")/.."
GATES=${*:-"trust obs service ingest_stall durability inference refresh assignment"}
failed=0
for gate in $GATES; do
    script="ci/gates/${gate}.py"
    if [ ! -f "$script" ]; then
        echo "run_gates: no such gate '$gate' (expected one of: ci/gates/*.py)" >&2
        failed=1
        continue
    fi
    echo "== ${gate} =="
    if ! PYTHONPATH=ci/gates python3 "$script"; then
        failed=1
    fi
done
exit $failed
