#include "cluster.h"

#include <fcntl.h>
#include <sched.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cstdlib>
#include <thread>

#include "common/logging.h"

namespace perfbench {

using zab::NodeId;

namespace {

// Every variable the library reads in a constructor or at open(). CI legs
// export some of them (ZAB_BATCH_TXNS=32); left set they would silently
// change what is measured.
constexpr const char* kLibraryKnobs[] = {
    "ZAB_BATCH_TXNS",          "ZAB_BATCH_BYTES",
    "ZAB_BATCH_FLUSH_US",      "ZAB_GROUP_COMMIT",
    "ZAB_GROUP_COMMIT_MAX_RECORDS", "ZAB_GROUP_COMMIT_MAX_BYTES",
    "ZAB_OP_SPANS",            "ZAB_TRACE_CAPACITY",
    "ZAB_READ_FENCE_TIMEOUT_MS", "ZAB_SLOWLOG_US",
    "ZAB_SLOW_FSYNC_MS",       "ZAB_STALL_COMMIT_MS",
    "ZAB_STALL_LAG_ZXIDS",     "ZAB_LOG_LEVEL",
};

std::string fs_name(long magic) {
  switch (static_cast<unsigned long>(magic)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    case 0x2FC12FC1: return "zfs";
    case 0x6969: return "nfs";
    case 0xF2F52010: return "f2fs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "unknown(0x%lx)",
                    static_cast<unsigned long>(magic));
      return buf;
    }
  }
}

}  // namespace

std::vector<std::string> pin_environment() {
  std::vector<std::string> removed;
  for (const char* name : kLibraryKnobs) {
    if (const char* v = std::getenv(name)) {
      removed.push_back(std::string(name) + "=" + v);
      ::unsetenv(name);
    }
  }
  zab::logging::set_level(zab::LogLevel::kError);
  return removed;
}

std::vector<std::string> resolved_config() {
  return {
      "nodes=3",
      "peer_transport=tcp-loopback",
      "message_delay_injected=none (latency is CPU + loopback TCP + fsync)",
      "wal=file fsync=on sync_mode=group_commit",
      "batch_txns=" + std::to_string(kBatchTxns),
      "client_service=tcp on every node",
      "client_op_timeout_s=5 client_session_timeout_s=6 (ClientConfig "
      "defaults)",
      "library knobs=built-in defaults (ZAB_* unset)",
  };
}

MachineRecord machine_record(const std::string& data_dir) {
  MachineRecord m;
  cpu_set_t set;
  CPU_ZERO(&set);
  m.nproc = ::sched_getaffinity(0, sizeof(set), &set) == 0
                ? static_cast<unsigned>(CPU_COUNT(&set))
                : std::thread::hardware_concurrency();
  m.compiler_flags = PERFBENCH_FLAGS;
  struct statfs sf {};
  m.fs_type = ::statfs(data_dir.c_str(), &sf) == 0 ? fs_name(sf.f_type)
                                                     : "unknown";

  const std::string path = data_dir + "/fsync-calibration";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) return m;
  std::vector<double> us;
  std::uint8_t rec[kValueBytes] = {};
  for (int i = 0; i < 200; ++i) {
    rec[0] = static_cast<std::uint8_t>(i);
    const std::int64_t t0 = now_ns();
    if (::write(fd, rec, sizeof(rec)) != static_cast<ssize_t>(sizeof(rec)) ||
        ::fsync(fd) != 0) {
      break;
    }
    us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
  }
  ::close(fd);
  ::unlink(path.c_str());
  m.raw_fsync_samples = us.size();
  m.raw_fsync_p50_us = median(us);
  return m;
}

// --- ProdCluster -----------------------------------------------------------------

ProdCluster::ProdCluster(std::string dir, std::uint64_t seed)
    : dir_(std::move(dir)) {
  zab::harness::RuntimeClusterConfig cfg;
  cfg.n = kNodes;
  cfg.use_tcp = true;
  cfg.storage_dir = dir_;
  cfg.fsync = true;
  cfg.group_commit = true;
  cfg.batch_txns = kBatchTxns;
  cfg.with_trees = true;
  cfg.with_client_service = true;
  cfg.seed = seed;
  rc_ = std::make_unique<zab::harness::RuntimeCluster>(std::move(cfg));
}

ProdCluster::~ProdCluster() { stop(); }

zab::Status ProdCluster::start() {
  if (zab::Status st = rc_->start(); !st.is_ok()) return st;
  for (NodeId id = 1; id <= kNodes; ++id) {
    rc_->with_node(id, [](zab::ZabNode& n) { n.set_spans_enabled(true); });
  }
  if (rc_->wait_for_leader(zab::seconds(10)) == zab::kNoNode) {
    return zab::Status::timeout("no leader within 10 s");
  }
  return zab::Status::ok();
}

void ProdCluster::stop() {
  if (rc_) rc_->stop();
}

NodeId ProdCluster::active_leader() {
  for (NodeId id = 1; id <= kNodes; ++id) {
    if (rc_->view(id).active_leader) return id;
  }
  return zab::kNoNode;
}

void ProdCluster::reset_metrics() {
  for (NodeId id = 1; id <= kNodes; ++id) {
    rc_->with_node(id, [](zab::ZabNode& n) { n.metrics().reset(); });
  }
}

zab::MetricsSnapshot ProdCluster::snapshot() {
  zab::MetricsSnapshot all;
  for (NodeId id = 1; id <= kNodes; ++id) all.merge(rc_->metrics_snapshot(id));
  return all;
}

bool ProdCluster::wait_converged(const std::vector<NodeId>& nodes,
                                 std::int64_t timeout_ns, std::string* detail) {
  const std::int64_t deadline = now_ns() + timeout_ns;
  while (true) {
    std::vector<std::uint64_t> z;
    for (NodeId id : nodes) z.push_back(rc_->view(id).last_delivered.packed());
    bool same = true;
    for (std::uint64_t x : z) same = same && x == z.front();
    if (same) return true;
    if (now_ns() > deadline) {
      *detail = "replicas did not converge:";
      for (std::size_t i = 0; i < nodes.size(); ++i) {
        *detail += " node" + std::to_string(nodes[i]) + "=" +
                   zab::to_string(zab::Zxid::from_packed(z[i]));
      }
      return false;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void ProdCluster::check_trees(const std::vector<NodeId>& nodes,
                              const std::vector<KeyState>& expect,
                              Verdict& v) {
  for (NodeId id : nodes) {
    std::vector<std::string> bad;
    rc_->with_tree(id, [&](zab::pb::ReplicatedTree& t) {
      const zab::pb::DataTree& dt = t.tree();
      for (std::uint32_t k = 0; k < expect.size() && bad.size() < 5; ++k) {
        const std::string path = key_path(k);
        auto data = dt.get_data(path);
        auto stat = dt.stat(path);
        ValueId got;
        if (!data.is_ok() || !stat.is_ok() ||
            !parse_value(data.value(), &got)) {
          bad.push_back(path + " missing or malformed");
          continue;
        }
        const KeyState& e = expect[k];
        if (!(got == e.value) || stat.value().version != e.sets ||
            stat.value().mzxid.packed() != e.zxid) {
          bad.push_back(path + " holds writer " + std::to_string(got.writer) +
                        " seq " + std::to_string(got.seq) + " version " +
                        std::to_string(stat.value().version) + " mzxid " +
                        std::to_string(stat.value().mzxid.packed()) +
                        "; acked history ends at writer " +
                        std::to_string(e.value.writer) + " seq " +
                        std::to_string(e.value.seq) + " after " +
                        std::to_string(e.sets) + " sets at zxid " +
                        std::to_string(e.zxid));
        }
      }
    });
    for (auto& b : bad) v.fail("node" + std::to_string(id) + ": " + b);
  }
}

}  // namespace perfbench
