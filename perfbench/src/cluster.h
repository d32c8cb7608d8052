// The one production-shaped cluster every workload runs against, the
// measured configuration pinned in code, and the machine record.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "harness/runtime_cluster.h"

namespace perfbench {

/// Wire batching cap of the measured config.
inline constexpr std::size_t kBatchTxns = 8;

/// Unset every ZAB_* variable the library reads in its constructors, so the
/// measured config is the one written here whatever the caller's
/// environment holds. Returns "NAME=value" for each variable it removed.
std::vector<std::string> pin_environment();

/// The resolved configuration, one "key=value" per entry.
std::vector<std::string> resolved_config();

struct MachineRecord {
  unsigned nproc = 0;
  std::string fs_type;
  double raw_fsync_p50_us = 0;
  std::size_t raw_fsync_samples = 0;
  std::string compiler_flags;
};

/// Measured first in a run: raw 128-B append + fsync on the data directory
/// is the disk calibration every storage number should be read against.
MachineRecord machine_record(const std::string& data_dir);

/// n=3, TCP peers, file WAL with fsync and group commit, batch_txns=8,
/// client service on every node. No injected message delay.
class ProdCluster {
 public:
  ProdCluster(std::string dir, std::uint64_t seed);
  ~ProdCluster();
  ProdCluster(const ProdCluster&) = delete;
  ProdCluster& operator=(const ProdCluster&) = delete;

  static constexpr std::size_t kNodes = 3;

  /// Start every node and wait until one is an active leader.
  zab::Status start();
  void stop();

  [[nodiscard]] zab::harness::RuntimeCluster& rc() { return *rc_; }
  [[nodiscard]] std::uint16_t client_port(zab::NodeId id) const {
    return rc_->client_port(id);
  }
  /// Current active leader, or kNoNode.
  zab::NodeId active_leader();

  /// Zero every node's metrics (start of a measured window).
  void reset_metrics();
  /// Every node's metrics merged (counters add, histograms merge).
  zab::MetricsSnapshot snapshot();

  /// Wait until every node in `nodes` has delivered the same last zxid.
  bool wait_converged(const std::vector<zab::NodeId>& nodes,
                      std::int64_t timeout_ns, std::string* detail);
  /// Every node's tree must hold exactly the expected value, data version
  /// and mzxid for each benchmark key.
  void check_trees(const std::vector<zab::NodeId>& nodes,
                   const std::vector<KeyState>& expect, Verdict& v);

 private:
  std::string dir_;
  std::unique_ptr<zab::harness::RuntimeCluster> rc_;
};

}  // namespace perfbench
