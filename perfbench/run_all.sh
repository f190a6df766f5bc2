#!/bin/sh
# Runs every workload untraced, one process each (so peak memory is per
# workload), and prints each end-to-end metric by name and unit, then the
# run's result line with its correctness verdict.
#
#   sh perfbench/run_all.sh [seed] [seconds]
set -e
cd "$(dirname "$0")/.."
seed=${1:-1}
seconds=${2:-40}
for workload in psi_n3_32cubed phi_n3_16cubed ricci_pipeline_n3_64sq; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0 | grep -E "^($workload |\{)"
done
