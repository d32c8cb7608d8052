// The three workloads. Each fills a Report: end-to-end metrics from the
// untraced window, per-layer metrics from the traced one (Options::trace),
// and the correctness verdict.
#pragma once

#include "bench.h"

namespace perfbench {

/// Names accepted by --workload.
inline constexpr const char* kWorkloads[] = {"writes_pipelined", "mixed_sync",
                                             "leader_failover"};

/// Stand-alone layer probes at the workloads' shapes (traced run only).
struct ProbeResults {
  double storage_append_fsync_us = 0;     // one 128-B txn, group commit
  double storage_append_fsync_b8_us = 0;  // eight 128-B txns, group commit
  double net_propose_batch_us = 0;        // one-way PROPOSEBATCH of 8 txns
  double codec_set_us = 0;                // request+response codec, 128-B set
  double tree_set_us = 0;
  double tree_get_us = 0;
};
ProbeResults run_probes(const std::string& dir, Report& r);

Report run_workload(const Options& opts);

}  // namespace perfbench
