#!/bin/sh
# Run every workload, each in its own fresh process, and print each one's
# metrics by name with unit and op count. Exits 1 if any output check fails.
#
#   sh perfbench/all.sh [seed] [seconds] [trace]
set -u
cd "$(dirname "$0")/.." || exit 2
status=0
for workload in exact_dense exact_sparse cli; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-1}" --seconds "${2:-30}" --trace "${3:-0}" || status=1
done
exit "$status"
