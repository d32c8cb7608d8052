#include "workloads.h"

#include <poll.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <random>
#include <thread>
#include <unordered_map>

#include "client.h"
#include "cluster.h"
#include "pb/remote_client.h"

namespace perfbench {

namespace pb = zab::pb;
using zab::NodeId;

namespace {

// Shape of the load. Every workload uses at most kClients connections and
// at most kClients generator threads (nproc = 4 on the reference box).
constexpr int kClients = 4;
constexpr std::int64_t kSec = 1'000'000'000;
constexpr std::int64_t kWarmupNs = 1 * kSec;
constexpr std::int64_t kDrainNs = 15 * kSec;
constexpr int kSteadySetups = 5;
constexpr int kFailoverExtraSetups = 4;  // beside one per crash cycle
// The steady workloads replace one client connection this often, rotating
// over the four, and time the outage the client sees (unavailable_ms).
constexpr std::int64_t kReconnectEveryNs = 1 * kSec;
constexpr std::uint32_t kKeysPerClient = 64;  // writes_pipelined, leader_failover
constexpr std::uint32_t kMixedKeys = 1024;    // mixed_sync
constexpr std::size_t kPipelineDepth = 16;
constexpr std::uint64_t kPipelinedReadOneIn = 16;
constexpr std::uint64_t kMixedWriteOneIn = 10;
// Over all callers: about a sixth of what the four blocking callers can
// issue on a quiet host, so the backlog a crash leaves drains within two
// seconds of recovery, and the servers are busy enough that the latencies
// measure the program rather than how fast an idle vCPU wakes up.
constexpr double kFailoverWritesPerSec = 1000.0;
constexpr double kFailoverReadsPerSec = 100.0;
// Half a cycle of healthy load before each crash: the latency p50s come from
// those seconds, so a backlog that drains slowly on a contended host cannot
// move them.
constexpr std::int64_t kCrashAfterNs = 9 * kSec;
// An open-loop caller sleeps until this long before an op is due and spins
// the rest: an idle vCPU's timer wake-up is late by ~100 us, which would
// otherwise be charged to the op.
constexpr std::int64_t kSpinNs = 300'000;
constexpr std::int64_t kCycleNs = 18 * kSec;
constexpr std::uint64_t kXidBase = 1ull << 32;

NodeId home_node(int client) { return static_cast<NodeId>(client % 3 + 1); }

std::uint64_t client_seed(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  return seed * 0x9E3779B97F4A7C15ULL + a * 1000003 + b * 7919 + 1;
}

// Measured windows of one run: [a_start, a_end) untraced, [a_end, b_end)
// traced (empty in an untraced run). Earlier completions are warm-up.
struct Plan {
  std::int64_t a_start = 0, a_end = 0, b_end = 0;
  bool traced = false;
  /// 0 warm-up, 1 window A, 2 window B, 3 drain.
  [[nodiscard]] int phase(std::int64_t t) const {
    if (t < a_start) return 0;
    if (t < a_end) return 1;
    if (t < b_end) return 2;
    return 3;
  }
  [[nodiscard]] std::int64_t window_start(int ph) const {
    return ph == 1 ? a_start : a_end;
  }
};

/// Completed ops of one window, also split by the second they completed in.
struct Tally {
  Samples writes, reads;
  std::vector<std::uint64_t> per_sec;
  std::vector<Samples> writes_sec, reads_sec;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;

  void complete(bool write, std::int64_t start, std::int64_t end,
                std::int64_t window_start) {
    (write ? writes : reads).add(end - start);
    ++ops;
    const auto sec = static_cast<std::size_t>(
        std::max<std::int64_t>(0, end - window_start) / kSec);
    grow(sec + 1);
    ++per_sec[sec];
    (write ? writes_sec : reads_sec)[sec].add(end - start);
  }
  void merge(const Tally& o) {
    writes.append(o.writes);
    reads.append(o.reads);
    grow(o.per_sec.size());
    for (std::size_t i = 0; i < o.per_sec.size(); ++i) {
      per_sec[i] += o.per_sec[i];
      writes_sec[i].append(o.writes_sec[i]);
      reads_sec[i].append(o.reads_sec[i]);
    }
    ops += o.ops;
    failed += o.failed;
  }
  /// Median over the first `full` seconds of each second's q-quantile.
  [[nodiscard]] double per_second_quantile_us(bool write, double q,
                                              std::size_t full) {
    std::vector<double> v;
    auto& secs = write ? writes_sec : reads_sec;
    for (std::size_t i = 0; i < full && i < secs.size(); ++i) {
      if (secs[i].count() > 0) v.push_back(secs[i].quantile_us(q));
    }
    return median(v);
  }

 private:
  void grow(std::size_t n) {
    if (per_sec.size() >= n) return;
    per_sec.resize(n, 0);
    writes_sec.resize(n);
    reads_sec.resize(n);
  }
};

/// CPU time of one generator thread per window.
struct ThreadCpu {
  std::int64_t mark[4] = {};
  int phase = 0;
  void at(int ph) {
    while (phase < ph) mark[++phase] = thread_cpu_ns();
  }
  [[nodiscard]] std::int64_t window(int w) const { return mark[w + 2] - mark[w + 1]; }
};

/// One connection (steady workloads) or caller (leader_failover).
struct Client {
  Ledger ledger;
  Tally win[2];
  std::vector<ClientSpan> spans;
  std::uint64_t failed = 0;  // ops answered with an error, whole run
  std::uint64_t failed_writes = 0;
  std::string first_error;
  std::uint64_t retries = 0;
  Samples send_lag;  // open loop: how late the generator sent
  std::vector<double> reconnect_ms[2];  // steady workloads, per window
  Verdict verdict;
};

/// What one measured window produced, merged over clients.
struct Window {
  Tally tally;
  std::int64_t wall_ns = 0;
  std::int64_t gen_cpu_ns = 0;
  std::int64_t proc_cpu_ns = 0;
  zab::MetricsSnapshot server;
  std::vector<ClientSpan> spans;
  std::uint64_t elections = 0;
  bool open_loop = false;  // several cycles: per_sec buckets do not apply

  /// Whole seconds whose per-second buckets the latency p50s use: the
  /// window's, or on leader_failover the seconds before each cycle's crash.
  [[nodiscard]] std::size_t latency_seconds() const {
    return static_cast<std::size_t>((open_loop ? kCrashAfterNs : wall_ns) / kSec);
  }

  [[nodiscard]] double ops_per_s() const {
    if (open_loop) {
      return wall_ns > 0 ? static_cast<double>(tally.ops) * 1e9 /
                               static_cast<double>(wall_ns)
                         : 0;
    }
    // Median of the whole seconds of the window: robust to a neighbour's
    // burst on a shared machine.
    const auto full = static_cast<std::size_t>(wall_ns / kSec);
    std::vector<double> v;
    for (std::size_t i = 0; i < full && i < tally.per_sec.size(); ++i) {
      v.push_back(static_cast<double>(tally.per_sec[i]));
    }
    if (v.empty()) {
      return wall_ns > 0 ? static_cast<double>(tally.ops) * 1e9 /
                               static_cast<double>(wall_ns)
                         : 0;
    }
    return median(v);
  }
};

std::uint64_t ctr(const zab::MetricsSnapshot& s, const std::string& k) {
  auto it = s.counters.find(k);
  return it == s.counters.end() ? 0 : it->second;
}
double hist_us(const zab::MetricsSnapshot& s, const std::string& k, double q) {
  auto it = s.histograms.find(k);
  if (it == s.histograms.end() || it->second.count() == 0) return 0;
  return static_cast<double>(it->second.quantile(q)) / 1000.0;
}
double hist_mean(const zab::MetricsSnapshot& s, const std::string& k) {
  auto it = s.histograms.find(k);
  return it == s.histograms.end() ? 0 : it->second.mean();
}
double per(double x, std::uint64_t n) {
  return n == 0 ? 0 : x / static_cast<double>(n);
}

std::string fmt(const char* f, double a) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), f, a);
  return buf;
}

void write_spans(const std::string& path, const std::vector<ClientSpan>& spans,
                 Report& r) {
  if (path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    r.note("trace: cannot write " + path);
    return;
  }
  std::fprintf(f, "session,xid,kind,start_ns,encoded_ns,sent_ns,received_ns,decoded_ns\n");
  for (const ClientSpan& s : spans) {
    std::fprintf(f, "%llu,%llu,%u,%lld,%lld,%lld,%lld,%lld\n",
                 static_cast<unsigned long long>(s.session),
                 static_cast<unsigned long long>(s.xid), s.kind,
                 static_cast<long long>(s.start),
                 static_cast<long long>(s.encoded),
                 static_cast<long long>(s.sent),
                 static_cast<long long>(s.received),
                 static_cast<long long>(s.decoded));
  }
  std::fclose(f);
  r.note("trace: " + std::to_string(spans.size()) + " client spans written to " + path);
}

pb::ClientRequest set_request(std::uint64_t xid, const ValueId& id,
                              std::uint64_t seed) {
  pb::ClientRequest req;
  req.xid = xid;
  req.kind = pb::ClientOpKind::kWrite;
  pb::Op op;
  op.type = pb::OpType::kSetData;
  op.path = key_path(id.key);
  op.data = make_value(id, seed);
  req.ops.push_back(std::move(op));
  return req;
}

pb::ClientRequest create_request(std::uint64_t xid, std::uint32_t key,
                                 std::uint64_t seed) {
  pb::ClientRequest req = set_request(xid, {key, kPreloadWriter, 0}, seed);
  req.ops[0].type = pb::OpType::kCreate;
  return req;
}

pb::ClientRequest get_request(std::uint64_t xid, std::uint32_t key,
                              pb::ReadConsistency c, std::uint64_t fence) {
  pb::ClientRequest req;
  req.xid = xid;
  req.kind = pb::ClientOpKind::kGetData;
  req.path = key_path(key);
  req.consistency = c;
  req.fence_zxid = fence;
  return req;
}

// Record a successful answer in the client's ledger.
void note_answer(Client& cl, bool write, const ValueId& id, std::uint64_t xid,
                 const pb::ClientResponse& resp) {
  if (write) {
    cl.ledger.writes.push_back({id, xid, resp.zxid.packed()});
    return;
  }
  ValueId got;
  if (!parse_value(resp.data, &got)) {
    cl.verdict.fail("read of " + key_path(id.key) + " returned malformed data");
    return;
  }
  cl.ledger.reads.push_back({got, resp.zxid.packed()});
}

// Count an op the server answered with an error.
void note_failure(Client& cl, bool write, zab::Code code, Tally* win) {
  ++cl.failed;
  if (write) ++cl.failed_writes;
  if (win != nullptr) ++win->failed;
  if (cl.first_error.empty()) {
    cl.first_error = std::string(write ? "write " : "read ") + zab::code_name(code);
  }
}

// --- Steady workloads ------------------------------------------------------------

struct Steady {
  std::unique_ptr<ProdCluster> cluster;
  std::vector<std::unique_ptr<CodecConn>> conns;
  std::vector<Client> clients;
};

/// One full set-up: fresh cluster, elected leader, four sessions, keyspace
/// preloaded.
zab::Status setup_steady(const Options& o, int attempt, std::uint32_t keys,
                         Steady& s, std::int64_t* setup_ns) {
  const std::string dir = o.data_dir + "/setup" + std::to_string(attempt);
  const std::int64_t t0 = now_ns();
  s.cluster = std::make_unique<ProdCluster>(dir, o.seed + static_cast<std::uint64_t>(attempt));
  if (zab::Status st = s.cluster->start(); !st.is_ok()) return st;
  s.conns.clear();
  s.clients.clear();
  s.clients.resize(kClients);
  for (int c = 0; c < kClients; ++c) {
    s.conns.push_back(std::make_unique<CodecConn>());
    if (zab::Status st = s.conns[c]->connect(
            s.cluster->client_port(home_node(c)), zab::seconds(5));
        !st.is_ok()) {
      return st;
    }
  }
  std::vector<std::vector<pb::ClientRequest>> reqs(kClients);
  std::vector<std::unordered_map<std::uint64_t, std::uint32_t>> key_of(kClients);
  for (std::uint32_t k = 0; k < keys; ++k) {
    const int c = static_cast<int>(k % kClients);
    const std::uint64_t xid = s.conns[c]->next_xid();
    reqs[c].push_back(create_request(xid, k, o.seed));
    key_of[c][xid] = k;
  }
  for (int c = 0; c < kClients; ++c) {
    if (zab::Status st = s.conns[c]->send(reqs[c]); !st.is_ok()) return st;
  }
  for (int c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < reqs[c].size(); ++i) {
      pb::ClientResponse resp;
      if (zab::Status st = s.conns[c]->recv(&resp, now_ns() + 10 * kSec);
          !st.is_ok()) {
        return st;
      }
      if (resp.code != zab::Code::kOk || key_of[c].count(resp.xid) == 0) {
        return zab::Status(resp.code, "preload create failed");
      }
      const std::uint32_t k = key_of[c][resp.xid];
      s.clients[c].ledger.writes.push_back(
          {{k, kPreloadWriter, 0}, resp.xid, resp.zxid.packed()});
    }
  }
  *setup_ns = now_ns() - t0;
  return zab::Status::ok();
}

/// Replace connection `c` with a fresh session on the same server, as a
/// client does after losing its connection, and return the outage it sees:
/// connect through its first acknowledged write (a set of `id`), in ms. The
/// old session is closed first; the new one continues its xids and fence.
/// The caller holds no op outstanding on `c`. On a healthy cluster this is
/// the floor under the failover number.
zab::Result<double> reconnect(Steady& s, int c, const ValueId& id,
                              std::uint64_t seed) {
  s.conns[c]->close_session();
  const std::int64_t t0 = now_ns();
  auto conn = std::make_unique<CodecConn>();
  if (zab::Status st = conn->connect(s.cluster->client_port(home_node(c)),
                                     zab::seconds(5));
      !st.is_ok()) {
    return st;
  }
  conn->continue_from(*s.conns[c]);
  const std::uint64_t xid = conn->next_xid();
  pb::ClientResponse resp;
  zab::Status st = conn->send({set_request(xid, id, seed)});
  if (st.is_ok()) st = conn->recv(&resp, now_ns() + 10 * kSec);
  if (!st.is_ok()) return st;
  if (resp.code != zab::Code::kOk || resp.xid != xid) {
    return zab::Status(resp.code, "first write after a reconnect failed");
  }
  const double ms = static_cast<double>(now_ns() - t0) / 1e6;
  note_answer(s.clients[c], true, id, xid, resp);
  s.conns[c] = std::move(conn);
  return ms;
}

void teardown_steady(Steady& s) {
  for (auto& c : s.conns) c->close_session();
  s.conns.clear();
  if (s.cluster) s.cluster->stop();
}

/// writes_pipelined: one thread keeps kPipelineDepth ops outstanding on each
/// of the four connections until `stop_at`, then drains. Every
/// kReconnectEveryNs one connection, in turn, stops issuing, drains and is
/// replaced (reconnect()).
void pipelined_generator(Steady& s, const Plan& plan, std::int64_t stop_at,
                         std::uint64_t seed, ThreadCpu& cpu) {
  struct Pending {
    std::int64_t start;
    bool write;
    ValueId id;
  };
  std::vector<std::unordered_map<std::uint64_t, Pending>> pending(kClients);
  // Session reads a lagging replica answered kNotReady (fence timeout):
  // re-issued like RemoteClient would, timed from the first attempt.
  std::vector<std::vector<Pending>> retry(kClients);
  std::vector<std::mt19937_64> rng;
  std::vector<std::uint64_t> seq(kClients, 0);
  std::vector<pollfd> pfds(kClients);
  for (int c = 0; c < kClients; ++c) {
    rng.emplace_back(client_seed(seed, 1, static_cast<std::uint64_t>(c)));
    pfds[c] = {s.conns[c]->fd(), POLLIN, 0};
  }
  std::vector<pb::ClientRequest> batch;
  std::vector<pb::ClientResponse> resps;
  int spans_phase = 0;
  std::int64_t next_reconnect = plan.a_start + kReconnectEveryNs / 2;
  int replacing = -1;  // connection being drained for replacement
  int replaced = 0;

  while (true) {
    const std::int64_t now = now_ns();
    const int ph = plan.phase(now);
    cpu.at(ph);
    if (plan.traced && ph != spans_phase && (ph == 2 || ph == 3)) {
      for (int c = 0; c < kClients; ++c) {
        s.conns[c]->record_spans(ph == 2 ? &s.clients[c].spans : nullptr);
      }
      spans_phase = ph;
    }
    const bool issuing = now < stop_at;
    if (replacing < 0 && issuing && now >= next_reconnect) {
      replacing = replaced % kClients;
    }
    bool any_pending = false;
    for (int c = 0; c < kClients; ++c) {
      auto& pend = pending[c];
      CodecConn& conn = *s.conns[c];
      const bool issue = issuing && c != replacing;
      if ((issue && pend.size() < kPipelineDepth) || !retry[c].empty()) {
        batch.clear();
        for (const Pending& p : retry[c]) {
          const std::uint64_t xid = conn.next_xid();
          batch.push_back(get_request(xid, p.id.key, pb::ReadConsistency::kSession,
                                      conn.fence()));
          pend[xid] = p;
        }
        retry[c].clear();
        while (issue && pend.size() < kPipelineDepth) {
          const std::uint32_t key = static_cast<std::uint32_t>(c) * kKeysPerClient +
                                    static_cast<std::uint32_t>(rng[c]() % kKeysPerClient);
          const bool read = rng[c]() % kPipelinedReadOneIn == 0;
          const std::uint64_t xid = conn.next_xid();
          ValueId id{key, static_cast<std::uint32_t>(c), 0};
          if (read) {
            batch.push_back(get_request(xid, key, pb::ReadConsistency::kSession,
                                        conn.fence()));
          } else {
            id.seq = ++seq[c];
            batch.push_back(set_request(xid, id, seed));
          }
          pend[xid] = Pending{now, !read, id};
        }
        if (zab::Status st = conn.send(batch); !st.is_ok()) {
          s.clients[c].verdict.fail("connection " + std::to_string(c) +
                                    ": " + st.to_string());
          return;
        }
      }
      any_pending = any_pending || !pend.empty() || !retry[c].empty();
    }
    if (replacing >= 0 && pending[replacing].empty() && retry[replacing].empty()) {
      const int c = replacing;
      const std::uint32_t key = static_cast<std::uint32_t>(c) * kKeysPerClient +
                                static_cast<std::uint32_t>(rng[c]() % kKeysPerClient);
      const ValueId id{key, static_cast<std::uint32_t>(c), ++seq[c]};
      const int rph = plan.phase(now_ns());
      zab::Result<double> ms = reconnect(s, c, id, seed);
      if (!ms.is_ok()) {
        s.clients[c].verdict.fail("reconnect " + std::to_string(c) + ": " +
                                  ms.status().to_string());
        return;
      }
      if (rph == 1 || rph == 2) s.clients[c].reconnect_ms[rph - 1].push_back(ms.value());
      pfds[c].fd = s.conns[c]->fd();
      if (plan.traced && spans_phase == 2) s.conns[c]->record_spans(&s.clients[c].spans);
      replacing = -1;
      ++replaced;
      next_reconnect += kReconnectEveryNs;
      continue;
    }
    if (!issuing && !any_pending) break;
    if (!issuing && now > stop_at + kDrainNs) {
      s.clients[0].verdict.fail("outstanding ops never answered");
      break;
    }
    if (::poll(pfds.data(), pfds.size(), 5) <= 0) continue;
    for (int c = 0; c < kClients; ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      resps.clear();
      Client& cl = s.clients[c];
      if (zab::Status st = s.conns[c]->pump(resps); !st.is_ok()) {
        cl.verdict.fail("connection " + std::to_string(c) + ": " + st.to_string());
        return;
      }
      const std::int64_t end = now_ns();
      const int eph = plan.phase(end);
      for (const pb::ClientResponse& r : resps) {
        auto it = pending[c].find(r.xid);
        if (it == pending[c].end()) {
          cl.verdict.fail("response to unknown xid " + std::to_string(r.xid));
          continue;
        }
        const Pending p = it->second;
        pending[c].erase(it);
        if (r.code == zab::Code::kNotReady && !p.write) {
          ++cl.retries;
          retry[c].push_back(p);
          continue;
        }
        if (r.code != zab::Code::kOk) {
          note_failure(cl, p.write, r.code,
                       eph == 1 || eph == 2 ? &cl.win[eph - 1] : nullptr);
          continue;
        }
        note_answer(cl, p.write, p.id, r.xid, r);
        if (eph == 1 || eph == 2) {
          cl.win[eph - 1].complete(p.write, p.start, end, plan.window_start(eph));
        }
      }
    }
  }
  cpu.at(3);
}

/// mixed_sync: one blocking caller; waits for each reply before the next op.
/// The callers take turns replacing their connection (reconnect()), one
/// every kReconnectEveryNs.
void sync_caller(Steady& s, int c, const Plan& plan, std::int64_t stop_at,
                 std::uint64_t seed, ThreadCpu& cpu) {
  std::mt19937_64 rng(client_seed(seed, 2, static_cast<std::uint64_t>(c)));
  CodecConn* conn = s.conns[c].get();
  Client& cl = s.clients[c];
  std::uint64_t seq = 0;
  std::vector<pb::ClientRequest> one(1);
  int spans_phase = 0;
  std::int64_t next_reconnect = plan.a_start + kReconnectEveryNs / 2 + c * kReconnectEveryNs;
  while (true) {
    const std::int64_t start = now_ns();
    const int ph = plan.phase(start);
    cpu.at(ph);
    if (start >= stop_at) break;
    if (plan.traced && ph != spans_phase && ph == 2) {
      conn->record_spans(&cl.spans);
      spans_phase = ph;
    }
    if (start >= next_reconnect) {
      const ValueId id{static_cast<std::uint32_t>(rng() % kMixedKeys),
                       static_cast<std::uint32_t>(c), ++seq};
      zab::Result<double> ms = reconnect(s, c, id, seed);
      if (!ms.is_ok()) {
        cl.verdict.fail("reconnect " + std::to_string(c) + ": " + ms.status().to_string());
        break;
      }
      if (ph == 1 || ph == 2) cl.reconnect_ms[ph - 1].push_back(ms.value());
      conn = s.conns[c].get();
      if (plan.traced && spans_phase == 2) conn->record_spans(&cl.spans);
      next_reconnect += kClients * kReconnectEveryNs;
      continue;
    }
    const auto key = static_cast<std::uint32_t>(rng() % kMixedKeys);
    const bool write = rng() % kMixedWriteOneIn == 0;
    ValueId id{key, static_cast<std::uint32_t>(c), 0};
    if (write) id.seq = ++seq;
    pb::ClientResponse resp;
    zab::Status st;
    std::uint64_t xid = 0;
    while (true) {
      xid = conn->next_xid();
      one[0] = write ? set_request(xid, id, seed)
                     : get_request(xid, key, pb::ReadConsistency::kSession,
                                   conn->fence());
      st = conn->send(one);
      if (st.is_ok()) st = conn->recv(&resp, start + kDrainNs);
      // A lagging replica answers a session read kNotReady after its fence
      // timeout; re-issue it like RemoteClient would.
      if (!st.is_ok() || write || resp.code != zab::Code::kNotReady) break;
      ++cl.retries;
    }
    if (!st.is_ok()) {
      cl.verdict.fail("caller " + std::to_string(c) + ": " + st.to_string());
      break;
    }
    const std::int64_t end = now_ns();
    const int eph = plan.phase(end);
    if (resp.xid != xid) {
      cl.verdict.fail("caller " + std::to_string(c) + ": xid mismatch");
      break;
    }
    if (resp.code != zab::Code::kOk) {
      note_failure(cl, write, resp.code,
                   eph == 1 || eph == 2 ? &cl.win[eph - 1] : nullptr);
      continue;
    }
    note_answer(cl, write, id, xid, resp);
    if (eph == 1 || eph == 2) {
      cl.win[eph - 1].complete(write, start, end, plan.window_start(eph));
    }
  }
  conn->record_spans(nullptr);
  cpu.at(3);
}

/// Correctness gate of a steady run (after the drain).
void steady_gate(Steady& s, std::uint32_t keys, Verdict& v) {
  std::vector<const Ledger*> ledgers;
  std::uint64_t failed_writes = 0;
  for (const Client& cl : s.clients) {
    ledgers.push_back(&cl.ledger);
    failed_writes += cl.failed_writes;
  }
  if (failed_writes != 0) {
    v.fail(std::to_string(failed_writes) +
           " writes were answered with an error; the read check needs every "
           "write acked");
  }
  const std::vector<KeyState> states = check_ledgers(ledgers, keys, v);
  std::string detail;
  if (!s.cluster->wait_converged({1, 2, 3}, 10 * kSec, &detail)) v.fail(detail);
  s.cluster->check_trees({1, 2, 3}, states, v);

  // Read back every key at kLinearizable through the clients.
  for (int c = 0; c < kClients; ++c) {
    std::vector<pb::ClientRequest> reqs;
    std::unordered_map<std::uint64_t, std::uint32_t> key_of;
    for (std::uint32_t k = static_cast<std::uint32_t>(c); k < keys; k += kClients) {
      const std::uint64_t xid = s.conns[c]->next_xid();
      reqs.push_back(get_request(xid, k, pb::ReadConsistency::kLinearizable, 0));
      key_of[xid] = k;
    }
    if (zab::Status st = s.conns[c]->send(reqs); !st.is_ok()) {
      v.fail("read-back: " + st.to_string());
      return;
    }
    for (std::size_t i = 0; i < reqs.size(); ++i) {
      pb::ClientResponse resp;
      if (zab::Status st = s.conns[c]->recv(&resp, now_ns() + 10 * kSec);
          !st.is_ok()) {
        v.fail("read-back: " + st.to_string());
        return;
      }
      ValueId got;
      auto it = key_of.find(resp.xid);
      if (it == key_of.end() || resp.code != zab::Code::kOk ||
          !parse_value(resp.data, &got) || !(got == states[it->second].value)) {
        v.fail("linearizable read-back of an acked write returned the wrong "
               "value (xid " + std::to_string(resp.xid) + ")");
      }
    }
  }
}

// --- leader_failover -----------------------------------------------------------

struct Caller {
  std::unique_ptr<pb::RemoteClient> rc;
  Client cl;
  std::atomic<std::int64_t> first_write_after_crash{0};
};

/// One open-loop caller: Poisson arrivals; each op is sent at max(now, due)
/// and timed from its due time. A failed or timed-out attempt is retried
/// under the same xid (the servers dedup replays), so each op applies once.
void failover_caller(Caller& f, int idx, std::uint64_t seed, std::int64_t start,
                     int win, bool traced, const std::atomic<std::int64_t>& crash_ns,
                     const std::atomic<std::int64_t>& stop_ns, ThreadCpu& cpu) {
  std::mt19937_64 rng(seed);
  const double per_caller =
      (kFailoverWritesPerSec + kFailoverReadsPerSec) / kClients;
  std::exponential_distribution<double> gap(per_caller / 1e9);
  std::uniform_real_distribution<double> u01(0, 1);
  const double read_share =
      kFailoverReadsPerSec / (kFailoverWritesPerSec + kFailoverReadsPerSec);
  const std::uint32_t key_base = static_cast<std::uint32_t>(idx) * kKeysPerClient;
  Client& cl = f.cl;
  std::uint64_t xid = kXidBase;
  std::uint64_t seq = 0;
  double due_f = static_cast<double>(start);
  cpu.at(win + 1);
  while (true) {
    due_f += gap(rng);
    const auto due = static_cast<std::int64_t>(due_f);
    if (due >= stop_ns.load()) break;
    const bool read = u01(rng) < read_share;
    const std::uint32_t key = key_base + static_cast<std::uint32_t>(rng() % kKeysPerClient);
    if (now_ns() < due - kSpinNs) {
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::nanoseconds(due - kSpinNs)));
    }
    while (now_ns() < due) {
    }
    const std::int64_t sent = now_ns();
    cl.send_lag.add(sent - due);
    ValueId id{key, static_cast<std::uint32_t>(idx), 0};
    pb::ClientRequest req;
    if (read) {
      req = get_request(++xid, key, pb::ReadConsistency::kSession, 0);
    } else {
      id.seq = ++seq;
      req = set_request(++xid, id, seed);
    }
    bool ok = false;
    pb::ClientResponse resp;
    while (true) {
      if (read) req.fence_zxid = f.rc->last_seen_zxid();
      auto r = f.rc->call(req);
      if (r.is_ok() && r.value().code == zab::Code::kOk) {
        resp = std::move(r).take();
        ok = true;
        break;
      }
      const std::int64_t stop = stop_ns.load();
      if (stop != INT64_MAX && now_ns() > stop + kDrainNs) break;
      ++cl.retries;
    }
    const std::int64_t end = now_ns();
    if (!ok) {
      ++cl.failed;
      ++cl.win[win].failed;
      continue;
    }
    note_answer(cl, !read, id, req.xid, resp);
    cl.win[win].complete(!read, due, end, start);
    if (traced) {
      // RemoteClient hides its encode and decode: the span is the call.
      cl.spans.push_back({f.rc->session_id(), req.xid,
                          static_cast<std::uint8_t>(req.kind), sent, sent, sent,
                          end, end});
    }
    const std::int64_t crash = crash_ns.load();
    if (!read && crash != 0 && end > crash &&
        f.first_write_after_crash.load() == 0) {
      f.first_write_after_crash.store(end);
    }
  }
  cpu.at(3);
}

/// One leader_failover set-up: fresh cluster, elected leader, one
/// RemoteClient session per caller, each caller's keys preloaded through
/// its own session.
zab::Status setup_failover(const std::string& dir, std::uint64_t seed,
                           std::unique_ptr<ProdCluster>& cluster,
                           std::vector<std::unique_ptr<Caller>>& callers) {
  cluster = std::make_unique<ProdCluster>(dir, seed);
  if (zab::Status st = cluster->start(); !st.is_ok()) return st;
  callers.clear();
  for (int c = 0; c < kClients; ++c) {
    pb::ClientConfig cfg;
    for (int k = 0; k < 3; ++k) {
      cfg.servers.push_back({"127.0.0.1", cluster->client_port(home_node(c + k))});
    }
    callers.push_back(std::make_unique<Caller>());
    callers.back()->rc = std::make_unique<pb::RemoteClient>(cfg);
  }
  std::vector<std::thread> pre;
  std::atomic<bool> ok{true};
  for (int c = 0; c < kClients; ++c) {
    pre.emplace_back([&, c] {
      Caller& f = *callers[c];
      for (std::uint32_t i = 0; i < kKeysPerClient; ++i) {
        const std::uint32_t k = static_cast<std::uint32_t>(c) * kKeysPerClient + i;
        auto resp = f.rc->call(create_request(i + 1, k, seed));
        if (!resp.is_ok() || resp.value().code != zab::Code::kOk) {
          ok = false;
          return;
        }
        f.cl.ledger.writes.push_back(
            {{k, kPreloadWriter, 0}, i + 1, resp.value().zxid.packed()});
      }
    });
  }
  for (auto& t : pre) t.join();
  return ok ? zab::Status::ok() : zab::Status::internal("preload create failed");
}

}  // namespace

// --- Reporting -------------------------------------------------------------------

namespace {

struct Extra {  // leader_failover only
  std::vector<double> new_leader_ms;
  std::vector<double> first_write_ms;
  std::uint64_t reconnects = 0;
  std::uint64_t replays = 0;
  std::uint64_t retries = 0;
  Samples send_lag;
};

/// `unavailable_ms` is already reduced over the run's disruptions.
void end_to_end(Report& r, Window& a, const std::vector<double>& setup_s,
                double unavailable_ms, std::size_t disruptions) {
  r.e2e("setup_s", median(setup_s), "s");
  r.e2e("ops_per_s", a.ops_per_s(), "1/s");
  // The write p50 is the gated latency: the median over the window's seconds
  // of each second's p50, so a neighbour's burst on a shared host moves one
  // second, not the result. On leader_failover the seconds are those before
  // each crash, counted from the cycle's start; the stall and its backlog
  // show in the tails and unavailable_ms. The read p50 and the tails are
  // printed beside it but not gated: they spread too far from run to run on
  // a shared host (README.md).
  const std::size_t full = a.latency_seconds();
  for (const bool write : {true, false}) {
    const char* op = write ? "write" : "read";
    Samples& all = write ? a.tally.writes : a.tally.reads;
    const double p50 = a.tally.per_second_quantile_us(write, 0.50, full);
    if (write) r.e2e("write_p50_us", p50, "us");
    r.note(std::string(op) + ": p50=" + fmt("%.1f", p50) +
           " us (per-second median) p90=" + fmt("%.1f", all.quantile_us(0.90)) +
           " us p99=" + fmt("%.1f", all.quantile_us(0.99)) + " us (" +
           std::to_string(all.count()) + " samples)");
  }
  if (!a.open_loop && !a.tally.per_sec.empty()) {
    std::vector<double> ps(a.tally.per_sec.begin(), a.tally.per_sec.end());
    std::sort(ps.begin(), ps.end());
    r.note("per-second ops: min=" + fmt("%.0f", ps.front()) + " median=" +
           fmt("%.0f", median(ps)) + " max=" + fmt("%.0f", ps.back()));
  }
  r.e2e("unavailable_ms", unavailable_ms, "ms");
  r.note("samples: setups=" + std::to_string(setup_s.size()) +
         " disruptions=" + std::to_string(disruptions) +
         " window_s=" + fmt("%.3f", static_cast<double>(a.wall_ns) / 1e9));
}

/// Share of ops/s the client spans cost: untraced window `a` against
/// traced window `b`; 0 when either saw no ops.
double overhead(const Window& a, const Window& b) {
  const double base = a.ops_per_s();
  const double traced = b.ops_per_s();
  return base > 0 && traced > 0 ? 1.0 - traced / base : 0;
}

/// Per-layer table of the traced window `b`; `overhead` is the share of
/// ops/s the client spans cost against the untraced window.
void layers(Report& r, Window& b, double overhead, const ProbeResults& p,
            Extra& x, double raw_fsync_us) {
  const zab::MetricsSnapshot& m = b.server;
  const std::uint64_t ops = b.tally.ops;
  const std::uint64_t attempted = b.tally.ops + b.tally.failed;
  auto d = [](std::uint64_t v) { return static_cast<double>(v); };

  r.layer("net.tcp.msgs_out_per_op", per(d(ctr(m, "net.tcp.msgs_out")), ops), "msg/op");
  r.layer("net.tcp.bytes_out_per_op", per(d(ctr(m, "net.tcp.bytes_out")), ops), "B/op");
  r.layer("net.tcp.writev_per_op", per(d(ctr(m, "net.tcp.writev_calls")), ops), "call/op");
  r.layer("cpu.server_us_per_op", per(d(b.proc_cpu_ns - b.gen_cpu_ns) / 1000.0, ops), "us/op");
  r.layer("cpu.client_us_per_op", per(d(b.gen_cpu_ns) / 1000.0, ops), "us/op");

  const std::uint64_t flushes = ctr(m, "zab.batch.flush_reason.size") +
                                ctr(m, "zab.batch.flush_reason.bytes") +
                                ctr(m, "zab.batch.flush_reason.timer");
  r.layer("zab.batch.txns_per_propose", hist_mean(m, "zab.batch.propose_txns"), "txn");
  r.layer("zab.batch.timer_flush_frac",
          per(d(ctr(m, "zab.batch.flush_reason.timer")), flushes), "ratio");
  r.layer("zab.op.queue_wait_us.p50", hist_us(m, "zab.op.stage.queue_wait", 0.5), "us");
  r.layer("zab.op.queue_wait_us.p99", hist_us(m, "zab.op.stage.queue_wait", 0.99), "us");
  r.layer("zab.op.log_fsync_us.p50", hist_us(m, "zab.op.stage.log_fsync", 0.5), "us");
  r.layer("zab.op.log_fsync_us.p99", hist_us(m, "zab.op.stage.log_fsync", 0.99), "us");
  r.layer("zab.op.quorum_ack_us.p50", hist_us(m, "zab.op.stage.quorum_ack", 0.5), "us");
  r.layer("zab.op.commit_us.p50", hist_us(m, "zab.op.stage.commit", 0.5), "us");
  r.layer("zab.op.deliver_us.p50", hist_us(m, "zab.op.stage.deliver", 0.5), "us");
  r.layer("zab.op.reply_write_us.p50", hist_us(m, "zab.op.stage.reply_write", 0.5), "us");
  const double server_total = hist_us(m, "zab.op.total_ns", 0.5);
  r.layer("zab.op.total_us.p50", server_total, "us");

  r.layer("storage.fsyncs_per_op", per(d(ctr(m, "storage.fsyncs")), ops), "fsync/op");
  r.layer("storage.sync_batch_records", hist_mean(m, "storage.sync_batch_records"), "record");
  r.layer("storage.fsync_us.p50", hist_us(m, "storage.fsync_ns", 0.5), "us");
  r.layer("storage.fsync_us.p99", hist_us(m, "storage.fsync_ns", 0.99), "us");

  // Client-side spans of the traced window (benchmark code around the codec
  // and socket calls). Each is a leaf, so its self time is its duration.
  Samples enc, snd, wait, dec, write_wait;
  for (const ClientSpan& s : b.spans) {
    enc.add(s.encoded - s.start);
    snd.add(s.sent - s.encoded);
    wait.add(s.received - s.sent);
    dec.add(s.decoded - s.received);
    if (s.kind == static_cast<std::uint8_t>(pb::ClientOpKind::kWrite)) {
      write_wait.add(s.received - s.sent);
    }
  }
  r.layer("pb.client.encode_us", enc.quantile_us(0.5), "us");
  r.layer("pb.client.send_us", snd.quantile_us(0.5), "us");
  r.layer("pb.client.wait_us", wait.quantile_us(0.5), "us");
  r.layer("pb.client.decode_us", dec.quantile_us(0.5), "us");
  // Time a write spent between the client's send and its response that
  // the server's own span does not cover: both TCP hops and socket queues.
  const double write_wait_p50 = write_wait.quantile_us(0.5);
  r.layer("pb.client.unattributed_us",
          server_total > 0 && write_wait_p50 > 0 ? write_wait_p50 - server_total : 0,
          "us");
  r.layer("client.write_p99_us", b.tally.writes.quantile_us(0.99), "us");
  r.layer("client.read_p50_us",
          b.tally.per_second_quantile_us(false, 0.50, b.latency_seconds()),
          "us");
  r.layer("client.read_p99_us", b.tally.reads.quantile_us(0.99), "us");
  r.layer("client.write_samples", d(b.tally.writes.count()), "count");
  r.layer("client.read_samples", d(b.tally.reads.count()), "count");
  r.layer("client.spans", d(b.spans.size()), "count");

  r.layer("zab.read.parked_us.p99", hist_us(m, "zab.read.parked_ns", 0.99), "us");
  r.layer("zab.read.fenced_frac",
          per(d(ctr(m, "zab.read.fenced")), b.tally.reads.count()), "ratio");

  r.layer("zab.election.count", d(b.elections), "count");
  r.layer("zab.election.rounds", d(ctr(m, "zab.election.rounds")), "count");
  r.layer("zab.election.duration_ms", hist_us(m, "zab.election.duration_ns", 0.5) / 1000.0, "ms");
  r.layer("zab.recovery.sync_ms", hist_us(m, "zab.recovery.sync_ns", 0.5) / 1000.0, "ms");
  r.layer("zab.failover.new_leader_ms", median(x.new_leader_ms), "ms");
  r.layer("failover.first_write_ms", median(x.first_write_ms), "ms");
  r.layer("pb.client.reconnects", d(x.reconnects), "count");
  r.layer("pb.client.replays", d(x.replays), "count");

  r.layer("client.failed_frac", per(d(b.tally.failed), attempted), "ratio");
  r.layer("client.retries", d(x.retries), "count");
  r.layer("client.send_lag_us.p99", x.send_lag.quantile_us(0.99), "us");
  r.layer("trace.overhead_frac", overhead, "ratio");

  r.layer("probe.storage.append_fsync_us", p.storage_append_fsync_us, "us");
  r.layer("probe.storage.append_fsync_batch8_us", p.storage_append_fsync_b8_us, "us");
  r.layer("probe.net.propose_batch_us", p.net_propose_batch_us, "us");
  r.layer("probe.pb.codec_set_us", p.codec_set_us, "us");
  r.layer("probe.pb.tree_set_us", p.tree_set_us, "us");
  r.layer("probe.pb.tree_get_us", p.tree_get_us, "us");
  // In-cluster stage time minus the probe of the same work is waiting.
  const double log_fsync = hist_us(m, "zab.op.stage.log_fsync", 0.5);
  const double quorum = hist_us(m, "zab.op.stage.quorum_ack", 0.5);
  r.layer("wait.storage.log_fsync_us",
          log_fsync > 0 ? log_fsync - p.storage_append_fsync_b8_us : 0, "us");
  r.layer("wait.net.propose_to_quorum_us",
          log_fsync > 0 ? log_fsync + quorum -
                              (2 * p.net_propose_batch_us + p.storage_append_fsync_b8_us)
                        : 0,
          "us");
  r.layer("machine.raw_fsync_us", raw_fsync_us, "us");

  r.note("layers: per-op denominators count the " + std::to_string(ops) +
         " ops completed in the traced window");
  r.note("cpu: process CPU (getrusage) minus the generator threads' "
         "CLOCK_THREAD_CPUTIME_ID; a per-thread server split waits for named "
         "threads in the library");
}

}  // namespace

// --- Entry points ------------------------------------------------------------------

namespace {

Report run_steady(const Options& o, bool pipelined, double raw_fsync_us) {
  Report r;
  const std::uint32_t keys = pipelined ? kClients * kKeysPerClient : kMixedKeys;
  std::vector<double> setup_s;
  Steady s;
  for (int i = 0; i < kSteadySetups; ++i) {
    if (i > 0) {
      teardown_steady(s);
      std::error_code ec;
      std::filesystem::remove_all(o.data_dir + "/setup" + std::to_string(i - 1), ec);
    }
    std::int64_t setup_ns = 0;
    if (zab::Status st = setup_steady(o, i, keys, s, &setup_ns); !st.is_ok()) {
      r.verdict.fail("setup: " + st.to_string());
      teardown_steady(s);
      return r;
    }
    setup_s.push_back(static_cast<double>(setup_ns) / 1e9);
  }

  const std::int64_t window = static_cast<std::int64_t>(o.seconds) * kSec;
  Plan plan;
  plan.traced = o.trace;
  plan.a_start = now_ns() + kWarmupNs;
  plan.a_end = plan.a_start + (o.trace ? window / 2 : window);
  plan.b_end = o.trace ? plan.a_end + window / 2 : plan.a_end;

  std::vector<ThreadCpu> cpu(pipelined ? 1 : kClients);
  std::vector<std::thread> threads;
  const std::uint64_t seed = o.seed;
  if (pipelined) {
    threads.emplace_back([&] { pipelined_generator(s, plan, plan.b_end, seed, cpu[0]); });
  } else {
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] { sync_caller(s, c, plan, plan.b_end, seed, cpu[c]); });
    }
  }

  // The main thread only marks the windows: metrics reset at each start,
  // snapshot at each end, process CPU at every boundary.
  Window win[2];
  auto sleep_to = [](std::int64_t t) {
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(t)));
  };
  sleep_to(plan.a_start);
  s.cluster->reset_metrics();
  const NodeId leader0 = s.cluster->active_leader();
  const zab::Epoch epoch0 = leader0 == zab::kNoNode ? 0 : s.cluster->rc().view(leader0).epoch;
  std::int64_t cpu0 = process_cpu_ns();
  sleep_to(plan.a_end);
  win[0].server = s.cluster->snapshot();
  std::int64_t cpu1 = process_cpu_ns();
  win[0].proc_cpu_ns = cpu1 - cpu0;
  if (o.trace) {
    s.cluster->reset_metrics();
    cpu1 = process_cpu_ns();
    sleep_to(plan.b_end);
    win[1].server = s.cluster->snapshot();
    win[1].proc_cpu_ns = process_cpu_ns() - cpu1;
  }
  const NodeId leader1 = s.cluster->active_leader();
  const zab::Epoch epoch1 = leader1 == zab::kNoNode ? 0 : s.cluster->rc().view(leader1).epoch;
  for (auto& t : threads) t.join();

  win[0].wall_ns = plan.a_end - plan.a_start;
  win[1].wall_ns = plan.b_end - plan.a_end;
  win[o.trace ? 1 : 0].elections = epoch1 - epoch0;
  for (int w = 0; w < 2; ++w) {
    for (Client& cl : s.clients) {
      win[w].tally.merge(cl.win[w]);
      r.attempted += cl.win[w].ops + cl.win[w].failed;
      r.failed += cl.win[w].failed;
    }
    for (const ThreadCpu& c : cpu) win[w].gen_cpu_ns += c.window(w);
  }
  std::vector<double> reconnects;  // window A
  for (Client& cl : s.clients) {
    for (auto& why : cl.verdict.violations) r.verdict.fail(why);
    win[1].spans.insert(win[1].spans.end(), cl.spans.begin(), cl.spans.end());
    reconnects.insert(reconnects.end(), cl.reconnect_ms[0].begin(), cl.reconnect_ms[0].end());
  }

  steady_gate(s, keys, r.verdict);

  if (o.trace) {
    const ProbeResults p = run_probes(o.data_dir, r);
    Extra none;
    for (const Client& cl : s.clients) none.retries += cl.retries;
    layers(r, win[1], overhead(win[0], win[1]), p, none, raw_fsync_us);
    write_spans(o.trace_out, win[1].spans, r);
  } else {
    end_to_end(r, win[0], setup_s, median(reconnects), reconnects.size());
  }
  for (const Client& cl : s.clients) {
    if (!cl.first_error.empty()) r.note("first failed op: " + cl.first_error);
  }
  teardown_steady(s);
  return r;
}

Report run_failover(const Options& o, double raw_fsync_us) {
  Report r;
  constexpr std::uint32_t keys = kClients * kKeysPerClient;
  const int crashes = std::max(1, o.seconds / static_cast<int>(kCycleNs / kSec));
  const std::int64_t cycle_ns = static_cast<std::int64_t>(o.seconds) * kSec / crashes;
  std::vector<double> setup_s, unavailable_ms;
  Extra x;
  Window win[2];
  Window all;  // every cycle: server metrics and per-op denominators
  win[0].open_loop = win[1].open_loop = all.open_loop = true;

  // A few set-ups without load first, so setup_s is a median of several.
  for (int i = 0; i < kFailoverExtraSetups; ++i) {
    const std::string dir = o.data_dir + "/setup" + std::to_string(i);
    const std::int64_t t0 = now_ns();
    std::unique_ptr<ProdCluster> cluster;
    std::vector<std::unique_ptr<Caller>> callers;
    const zab::Status st = setup_failover(dir, o.seed + 1000 + static_cast<std::uint64_t>(i),
                                          cluster, callers);
    const std::int64_t took = now_ns() - t0;
    callers.clear();
    if (cluster) cluster->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
    if (!st.is_ok()) {
      r.verdict.fail("setup: " + st.to_string());
      return r;
    }
    setup_s.push_back(static_cast<double>(took) / 1e9);
  }

  for (int cycle = 0; cycle < crashes; ++cycle) {
    // Odd cycles carry the client spans in a traced run; the rest compare.
    const int w = o.trace && cycle % 2 == 1 ? 1 : 0;
    const std::string dir = o.data_dir + "/cycle" + std::to_string(cycle);
    const std::int64_t t0 = now_ns();
    std::unique_ptr<ProdCluster> cluster;
    std::vector<std::unique_ptr<Caller>> callers;
    if (zab::Status st = setup_failover(dir, o.seed + static_cast<std::uint64_t>(cycle),
                                        cluster, callers);
        !st.is_ok()) {
      r.verdict.fail("setup: " + st.to_string());
      return r;
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);

    cluster->reset_metrics();
    std::atomic<std::int64_t> crash_ns{0};
    std::atomic<std::int64_t> stop_ns{INT64_MAX};
    std::vector<ThreadCpu> cpu(kClients);
    const std::int64_t start = now_ns() + 5'000'000;
    const std::int64_t cpu0 = process_cpu_ns();
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        failover_caller(*callers[c], c,
                        client_seed(o.seed, 3 + static_cast<std::uint64_t>(cycle),
                                    static_cast<std::uint64_t>(c)),
                        start, w, o.trace && w == 1, crash_ns, stop_ns, cpu[c]);
      });
    }

    // Crash the leader: it stops hearing its peers and its clients lose
    // their connections.
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(start + kCrashAfterNs)));
    const NodeId old_leader = cluster->active_leader();
    const zab::Epoch epoch0 =
        old_leader == zab::kNoNode ? 0 : cluster->rc().view(old_leader).epoch;
    const std::int64_t crash = now_ns();
    crash_ns.store(crash);
    if (old_leader != zab::kNoNode) {
      cluster->rc().mute_node(old_leader);
      cluster->rc().stop_client_service(old_leader);
    }
    NodeId new_leader = zab::kNoNode;
    std::int64_t recovered = 0;
    while (now_ns() < crash + 30 * kSec) {
      if (new_leader == zab::kNoNode) {
        const NodeId l = cluster->active_leader();
        if (l != zab::kNoNode && l != old_leader) {
          new_leader = l;
          x.new_leader_ms.push_back(static_cast<double>(now_ns() - crash) / 1e6);
        }
      }
      std::int64_t first = INT64_MAX, last = 0;
      for (auto& f : callers) {
        const std::int64_t t = f->first_write_after_crash.load();
        first = std::min(first, t == 0 ? INT64_MAX : t);
        last = t == 0 ? INT64_MAX : std::max(last, t);
      }
      if (new_leader != zab::kNoNode && last != INT64_MAX) {
        recovered = last;
        x.first_write_ms.push_back(static_cast<double>(first - crash) / 1e6);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    if (recovered == 0) {
      r.verdict.fail("cycle " + std::to_string(cycle) +
                     ": service did not recover within 30 s of the crash");
      recovered = now_ns();
    }
    unavailable_ms.push_back(static_cast<double>(recovered - crash) / 1e6);
    const std::int64_t stop = std::max(start + cycle_ns, recovered + kSec);
    std::this_thread::sleep_until(
        std::chrono::steady_clock::time_point(std::chrono::nanoseconds(stop)));
    stop_ns.store(stop);
    for (auto& t : threads) t.join();

    zab::MetricsSnapshot snap = cluster->snapshot();
    const std::int64_t proc = process_cpu_ns() - cpu0;
    if (new_leader != zab::kNoNode) {
      all.elections += cluster->rc().view(new_leader).epoch - epoch0;
    }
    all.server.merge(snap);
    all.proc_cpu_ns += proc;
    win[w].wall_ns += stop - start;
    all.wall_ns += stop - start;
    for (int c = 0; c < kClients; ++c) {
      Caller& f = *callers[c];
      all.gen_cpu_ns += cpu[c].window(w);
      win[w].tally.merge(f.cl.win[w]);
      all.tally.merge(f.cl.win[w]);
      x.retries += f.cl.retries;
      x.send_lag.append(f.cl.send_lag);
      r.attempted += f.cl.win[w].ops + f.cl.win[w].failed;
      r.failed += f.cl.win[w].failed;
      all.spans.insert(all.spans.end(), f.cl.spans.begin(), f.cl.spans.end());
      x.reconnects += f.rc->stats().reconnects;
      x.replays += f.rc->stats().replays;
      for (auto& why : f.cl.verdict.violations) r.verdict.fail(why);
    }

    // Gate: the old leader rejoins; all three replicas must converge on the
    // acked history, with no acked write lost across the crash.
    if (old_leader != zab::kNoNode) cluster->rc().unmute_node(old_leader);
    std::vector<const Ledger*> ledgers;
    std::uint64_t failed = 0;
    for (auto& f : callers) {
      ledgers.push_back(&f->cl.ledger);
      failed += f->cl.failed;
    }
    if (failed != 0) {
      r.verdict.fail("cycle " + std::to_string(cycle) + ": " +
                     std::to_string(failed) + " ops never succeeded");
    }
    const std::vector<KeyState> states = check_ledgers(ledgers, keys, r.verdict);
    std::string detail;
    if (!cluster->wait_converged({1, 2, 3}, 15 * kSec, &detail)) {
      r.verdict.fail("cycle " + std::to_string(cycle) + ": " + detail);
    }
    cluster->check_trees({1, 2, 3}, states, r.verdict);
    for (std::uint32_t k = 0; k < keys; ++k) {
      auto got = callers[0]->rc->get(
          key_path(k), pb::ReadOptions{.consistency = pb::ReadConsistency::kLinearizable});
      ValueId id;
      if (!got.is_ok() || !parse_value(got.value().value, &id) ||
          !(id == states[k].value)) {
        r.verdict.fail("cycle " + std::to_string(cycle) +
                       ": linearizable read-back of " + key_path(k) +
                       " does not return its last acked write");
        break;
      }
    }
    callers.clear();
    cluster->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  if (o.trace) {
    const ProbeResults p = run_probes(o.data_dir, r);
    layers(r, all, overhead(win[0], win[1]), p, x, raw_fsync_us);
    write_spans(o.trace_out, all.spans, r);
  } else {
    end_to_end(r, win[0], setup_s, median(unavailable_ms), unavailable_ms.size());
  }
  r.note("open loop: send lag p50=" + fmt("%.1f", x.send_lag.quantile_us(0.5)) +
         " us p90=" + fmt("%.1f", x.send_lag.quantile_us(0.9)) + " us (" +
         std::to_string(x.send_lag.count()) + " ops, stalled backlog included)");
  r.note("failover: crashes=" + std::to_string(crashes) +
         " new_leader_ms=" + fmt("%.1f", median(x.new_leader_ms)) +
         " first_write_ms=" + fmt("%.1f", median(x.first_write_ms)) +
         " unavailable_ms(all callers back)=" + fmt("%.1f", median(unavailable_ms)));
  return r;
}

}  // namespace

Report run_workload(const Options& o) {
  const MachineRecord m = machine_record(o.data_dir);
  Report r;
  if (o.workload == "writes_pipelined") {
    r = run_steady(o, true, m.raw_fsync_p50_us);
  } else if (o.workload == "mixed_sync") {
    r = run_steady(o, false, m.raw_fsync_p50_us);
  } else {
    r = run_failover(o, m.raw_fsync_p50_us);
  }
  r.notes.insert(r.notes.begin(),
                 {"machine: nproc=" + std::to_string(m.nproc) +
                      " data_fs=" + m.fs_type + " raw_fsync_p50_us=" +
                      fmt("%.1f", m.raw_fsync_p50_us) + " (" +
                      std::to_string(m.raw_fsync_samples) + " samples)",
                  "machine: compiler=" + m.compiler_flags});
  return r;
}

}  // namespace perfbench
