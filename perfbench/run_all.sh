#!/usr/bin/env bash
# Runs every workload once per seed and keeps each run's output, ready for compare.py.
#
#   perfbench/run_all.sh <output-dir> <seed>... [-- <run.py options>]
#
# Run from the repository root. Each run's standard output goes to
# <output-dir>/<workload>-<seed>.out and its metric table is echoed. Extra options after
# `--` are passed to run.py (default: --seconds 20 --trace 0). Exits non-zero if any run
# failed or reported incorrect output.
set -euo pipefail

if [[ $# -lt 2 ]]; then
  echo "usage: $0 <output-dir> <seed>... [-- <run.py options>]" >&2
  exit 2
fi
out=$1
shift
seeds=()
while [[ $# -gt 0 && $1 != "--" ]]; do
  seeds+=("$1")
  shift
done
[[ $# -gt 0 ]] && shift
options=("$@")
[[ ${#options[@]} -eq 0 ]] && options=(--seconds 20 --trace 0)

mkdir -p "$out"
status=0
for workload in classic_fork odf_fault_storm snapshot_server reclaim_pressure; do
  for seed in "${seeds[@]}"; do
    file="$out/$workload-$seed.out"
    if ! python3 "$(dirname "$0")/run.py" --workload "$workload" --seed "$seed" \
        "${options[@]}" > "$file"; then
      echo "FAILED: $workload seed $seed" >&2
      status=1
      continue
    fi
    grep -v '^# \(env\|detail\) ' "$file"
    tail -n 1 "$file" | grep -q '"correct": true' || { echo "INCORRECT: $file" >&2; status=1; }
  done
done
exit $status
