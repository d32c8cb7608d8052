// Stand-alone layer probes, timed around public calls at the shapes the
// workloads drive. Set against the in-cluster stage times they separate a
// layer's own cost from the time work waits for it.
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <random>
#include <thread>

#include "cluster.h"
#include "net/tcp_transport.h"
#include "pb/client_protocol.h"
#include "pb/data_tree.h"
#include "storage/file_storage.h"
#include "workloads.h"
#include "zab/messages.h"

namespace perfbench {

namespace {

zab::Bytes payload(std::uint64_t i) {
  return make_value({static_cast<std::uint32_t>(i % 1024), 1, i}, 7);
}

/// Group-commit append of `depth` 128-B txns, timed until the last one is
/// durable (fsync on, data filesystem). Median over rounds, in µs.
double probe_storage(const std::string& dir, int depth, int rounds) {
  // Declared before the storage: its sync thread signals through them.
  std::mutex mu;
  std::condition_variable cv;
  int durable = 0;
  zab::storage::FileStorageOptions opts;
  opts.dir = dir;
  opts.fsync = true;
  opts.sync_mode = zab::storage::FileStorageOptions::SyncMode::kGroupCommit;
  auto fs = zab::storage::FileStorage::open(opts);
  if (!fs.is_ok()) return 0;
  auto& st = *fs.value();

  std::vector<double> us;
  std::uint32_t counter = 0;
  for (int r = 0; r < rounds; ++r) {
    {
      std::lock_guard<std::mutex> g(mu);
      durable = 0;
    }
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < depth; ++i) {
      ++counter;
      st.append(zab::Txn{zab::Zxid(1, counter), payload(counter)}, [&] {
        std::lock_guard<std::mutex> g(mu);
        ++durable;
        cv.notify_one();
      });
    }
    std::unique_lock<std::mutex> lk(mu);
    cv.wait(lk, [&] { return durable == depth; });
    us.push_back(static_cast<double>(now_ns() - t0) / 1000.0);
  }
  return median(us);
}

/// One-way loopback time of an 8-txn PROPOSEBATCH frame between two
/// TcpTransports: send() on one to the handler firing on the other.
double probe_net(int rounds) {
  zab::net::TcpConfig ca, cb;
  ca.id = 1;
  ca.ports[1] = 0;
  cb.id = 2;
  cb.ports[2] = 0;
  auto a = zab::net::TcpTransport::create(ca);
  auto b = zab::net::TcpTransport::create(cb);
  if (!a.is_ok() || !b.is_ok()) return 0;
  std::map<zab::NodeId, std::uint16_t> ports{{1, a.value()->listen_port()},
                                            {2, b.value()->listen_port()}};
  a.value()->set_peer_ports(ports);
  b.value()->set_peer_ports(ports);
  std::atomic<std::int64_t> got{0};
  b.value()->set_handler([&](zab::NodeId, zab::Bytes) { got.store(now_ns()); });

  zab::ProposeBatchMsg m;
  m.epoch = 1;
  for (std::uint32_t i = 1; i <= kBatchTxns; ++i) {
    m.txns.push_back(zab::Txn{zab::Zxid(1, i), payload(i)});
  }
  const zab::Bytes frame = zab::encode_message(m);

  std::vector<double> us;
  for (int r = 0; r < rounds + 20; ++r) {  // the first sends dial
    got.store(0);
    const std::int64_t t0 = now_ns();
    a.value()->send(2, frame);
    const std::int64_t deadline = t0 + 2'000'000'000;
    while (got.load() == 0 && now_ns() < deadline) std::this_thread::yield();
    const std::int64_t t1 = got.load();
    if (t1 != 0 && r >= 20) us.push_back(static_cast<double>(t1 - t0) / 1000.0);
  }
  a.value()->shutdown();
  b.value()->shutdown();
  return median(us);
}

/// Client codec cost of one 128-B set: request encode + decode, response
/// encode + decode. Mean over `n`, in µs.
double probe_codec(int n) {
  zab::pb::ClientRequest req;
  req.kind = zab::pb::ClientOpKind::kWrite;
  zab::pb::Op op;
  op.type = zab::pb::OpType::kSetData;
  op.path = key_path(17);
  op.data = payload(17);
  req.ops.push_back(op);
  zab::pb::ClientResponse resp;
  resp.zxid = zab::Zxid(1, 99);
  std::size_t sink = 0;
  const std::int64_t t0 = now_ns();
  for (int i = 0; i < n; ++i) {
    req.xid = static_cast<std::uint64_t>(i);
    const zab::Bytes w = zab::pb::encode_client_request(req);
    auto d = zab::pb::decode_client_request(w);
    resp.xid = d.is_ok() ? d.value().xid : 0;
    const zab::Bytes rw = zab::pb::encode_client_response(resp);
    auto rd = zab::pb::decode_client_response(rw);
    sink += w.size() + (rd.is_ok() ? rd.value().xid : 0);
  }
  const double us = static_cast<double>(now_ns() - t0) / 1000.0 / n;
  return sink == 0 ? 0 : us;
}

/// DataTree setData and get on a 1024-key tree. Means over `n`, in µs.
void probe_tree(int n, double* set_us, double* get_us) {
  zab::pb::DataTree t;
  std::vector<std::uint32_t> version(1024, 0);
  for (std::uint32_t k = 0; k < 1024; ++k) {
    (void)t.apply_create(key_path(k), payload(k), zab::Zxid(1, k + 1));
  }
  std::mt19937_64 rng(11);
  std::vector<std::uint32_t> keys(static_cast<std::size_t>(n));
  std::vector<std::string> paths(1024);
  for (std::uint32_t k = 0; k < 1024; ++k) paths[k] = key_path(k);
  for (auto& k : keys) k = static_cast<std::uint32_t>(rng() % 1024);
  const zab::Bytes value = payload(3);

  std::int64_t t0 = now_ns();
  for (int i = 0; i < n; ++i) {
    const std::uint32_t k = keys[static_cast<std::size_t>(i)];
    (void)t.apply_set_data(paths[k], value, ++version[k],
                           zab::Zxid(2, static_cast<std::uint32_t>(i + 1)));
  }
  *set_us = static_cast<double>(now_ns() - t0) / 1000.0 / n;
  std::size_t sink = 0;
  t0 = now_ns();
  for (int i = 0; i < n; ++i) {
    auto d = t.get_data(paths[keys[static_cast<std::size_t>(i)]]);
    sink += d.is_ok() ? d.value().size() : 0;
  }
  *get_us = sink == 0 ? 0 : static_cast<double>(now_ns() - t0) / 1000.0 / n;
}

}  // namespace

ProbeResults run_probes(const std::string& dir, Report& r) {
  ProbeResults p;
  p.storage_append_fsync_us = probe_storage(dir + "/probe-wal-1", 1, 200);
  p.storage_append_fsync_b8_us =
      probe_storage(dir + "/probe-wal-8", static_cast<int>(kBatchTxns), 100);
  p.net_propose_batch_us = probe_net(500);
  p.codec_set_us = probe_codec(50'000);
  probe_tree(200'000, &p.tree_set_us, &p.tree_get_us);
  r.note("probes: storage append+fsync 1 txn " +
         std::to_string(p.storage_append_fsync_us) + " us, 8 txns " +
         std::to_string(p.storage_append_fsync_b8_us) +
         " us; tcp PROPOSEBATCH(8) one-way " +
         std::to_string(p.net_propose_batch_us) + " us; codec set " +
         std::to_string(p.codec_set_us) + " us; tree set " +
         std::to_string(p.tree_set_us) + " us get " +
         std::to_string(p.tree_get_us) + " us");
  return p;
}

}  // namespace perfbench
