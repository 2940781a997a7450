#!/usr/bin/env bash
# Print the seed-determined output of every e2ebench workload, with tracing
# off and on: the virtual latency and ladder-rung lines and the virtual-time
# and count metrics. They come from the benchmark's pass 0, so they depend
# on the seed only, not on the host or on --seconds.
#
# CI diffs the output for seeds 1-3 against
# tests/data/e2ebench_virtual_seed{1,2,3}.txt. A change that moves virtual
# time or a count refreshes those files, after a release build of e2ebench,
# with
#
#   for s in 1 2 3; do
#     scripts/e2ebench_virtual.sh e2ebench/target/release/e2ebench $s \
#       > tests/data/e2ebench_virtual_seed$s.txt
#   done
#
# Usage: scripts/e2ebench_virtual.sh [e2ebench-binary [seed]]
set -euo pipefail
bin=${1:-e2ebench/target/release/e2ebench}
seed=${2:-1}
# fail_ratio averages over a host-dependent number of passes, so it goes.
sel='^# (virtual|rung)|smc_per_req|metric (vt_|tee\.|route\.|admit\.|ring\.|coalesce\.|lane\.|core\.(events|irq_waits)_per_replay|hw\.mmio_per_event|workloads\.ios_per_query)'
for workload in sqlite_direct tenants_ring rw_percall_threaded; do
  for trace in 0 1; do
    echo "## $workload seed=$seed trace=$trace"
    "$bin" --workload "$workload" --seed "$seed" --seconds 1 --trace "$trace" \
      | grep -E "$sel" | sed 's/ fail_ratio=[0-9.]*;//'
  done
done
