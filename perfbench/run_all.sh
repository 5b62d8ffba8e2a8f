#!/usr/bin/env bash
# Runs every workload, untraced then traced, from the repository root:
#
#   bash perfbench/run_all.sh [seed] [seconds]
#
# Prints each run's full report and exits non-zero if any run fails its
# output checks. Per-run records land in .bench_results/.
set -u
seed="${1:-1}"
seconds="${2:-10}"
status=0
for workload in fig6_purchase100_dinar fig4_celeba_vgg_dinar wire_purchase100_ldp_i8 serve_mlp_i8; do
    for trace in 0 1; do
        cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
            --workload "$workload" --seed "$seed" --seconds "$seconds" --trace "$trace" || status=1
    done
done
exit "$status"
