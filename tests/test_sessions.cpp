// Durable replicated sessions: the expiry queue, the v2 wire frames, the
// replicated session table, leader-only expiry (cluster-wide at one zxid),
// the expiry-vs-reattach race, and client failover with session re-attach,
// watch re-registration, and idempotent replay.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "harness/runtime_cluster.h"
#include "harness/sim_cluster.h"
#include "pb/remote_client.h"
#include "pb/session_tracker.h"

namespace zab::pb {
namespace {

using harness::RuntimeCluster;
using harness::RuntimeClusterConfig;

// --- SessionTracker (leader-local expiry queue) ------------------------------

TEST(SessionTracker, NeverExpiresEarlyAndTouchExtends) {
  SessionTracker t(millis(40));
  t.add(1, /*timeout_ms=*/100, /*now=*/0);
  t.add(2, /*timeout_ms=*/100, /*now=*/0);
  EXPECT_EQ(t.size(), 2u);

  // Deadline 100ms rounds UP to the 120ms bucket: at exactly 100ms nothing
  // may expire (a session is never expired early).
  EXPECT_TRUE(t.take_expired(millis(100)).empty());

  // Touching moves the lease; the untouched session expires alone.
  t.touch(1, millis(100));
  const auto expired = t.take_expired(millis(130));
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0], 2u);
  EXPECT_TRUE(t.contains(1));
  EXPECT_FALSE(t.contains(2));

  const auto rest = t.take_expired(millis(250));
  ASSERT_EQ(rest.size(), 1u);
  EXPECT_EQ(rest[0], 1u);
  EXPECT_EQ(t.size(), 0u);
}

TEST(SessionTracker, RemoveAndUnknownTouchAreSafe) {
  SessionTracker t(millis(40));
  t.add(7, 100, 0);
  t.remove(7);
  EXPECT_FALSE(t.contains(7));
  t.touch(99, millis(10));  // never registered: ignored
  EXPECT_FALSE(t.contains(99));
  EXPECT_TRUE(t.take_expired(seconds(10)).empty());

  // Re-adding an existing session refreshes its lease (leader rebuild).
  t.add(7, 100, 0);
  t.add(7, 100, millis(500));
  EXPECT_TRUE(t.take_expired(millis(200)).empty());
  EXPECT_EQ(t.take_expired(millis(700)).size(), 1u);
}

// --- Wire protocol v2 --------------------------------------------------------

TEST(WireV2, SessionFramesRoundtrip) {
  ConnectRequest creq;
  creq.session_id = 0xA1B2C3D4E5F60708ull;
  creq.timeout_ms = 6000;
  creq.last_zxid = Zxid{3, 17}.packed();
  const Bytes cw = encode_connect_request(creq);
  EXPECT_EQ(classify_frame(cw), FrameType::kConnect);
  auto cr = decode_connect_request(cw);
  ASSERT_TRUE(cr.is_ok());
  EXPECT_EQ(cr.value().session_id, creq.session_id);
  EXPECT_EQ(cr.value().timeout_ms, creq.timeout_ms);
  EXPECT_EQ(cr.value().last_zxid, creq.last_zxid);

  ConnectResponse cresp;
  cresp.code = Code::kOk;
  cresp.session_id = 42;
  cresp.timeout_ms = 4000;
  cresp.reattached = true;
  cresp.last_zxid = Zxid{2, 9}.packed();
  const Bytes aw = encode_connect_response(cresp);
  EXPECT_EQ(classify_frame(aw), FrameType::kConnectAck);
  auto ar = decode_connect_response(aw);
  ASSERT_TRUE(ar.is_ok());
  EXPECT_EQ(ar.value().session_id, 42u);
  EXPECT_EQ(ar.value().timeout_ms, 4000u);
  EXPECT_TRUE(ar.value().reattached);
  EXPECT_EQ(ar.value().last_zxid, cresp.last_zxid);

  PingRequest preq;
  preq.session_id = 42;
  const Bytes pw = encode_ping_request(preq);
  EXPECT_EQ(classify_frame(pw), FrameType::kPing);
  auto pr = decode_ping_request(pw);
  ASSERT_TRUE(pr.is_ok());
  EXPECT_EQ(pr.value().session_id, 42u);

  PingResponse presp;
  presp.code = Code::kSessionExpired;
  presp.session_id = 42;
  presp.is_leader = true;
  const Bytes qw = encode_ping_response(presp);
  EXPECT_EQ(classify_frame(qw), FrameType::kPong);
  auto qr = decode_ping_response(qw);
  ASSERT_TRUE(qr.is_ok());
  EXPECT_EQ(qr.value().code, Code::kSessionExpired);
  EXPECT_TRUE(qr.value().is_leader);
}

TEST(WireV2, LegacyV1FrameGetsActionableError) {
  // v1 frames opened with a bare tag byte ('C' = request); in v2 that byte
  // lands where the magic lives, and the decoder says so explicitly.
  Bytes v1{0x43, 0x01, 0x02, 0x03};
  EXPECT_EQ(classify_frame(v1), FrameType::kInvalid);
  auto r = decode_client_request(v1);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().to_string().find("v1"), std::string::npos);
  EXPECT_NE(r.status().to_string().find("upgrade"), std::string::npos);
}

TEST(WireV2, VersionAndTagMismatchesRejected) {
  // Future version: magic ok, version bumped.
  ClientRequest req;
  req.kind = ClientOpKind::kGetData;
  req.path = "/x";
  Bytes wire = encode_client_request(req);
  wire[1] = 9;
  EXPECT_EQ(classify_frame(wire), FrameType::kInvalid);
  auto r = decode_client_request(wire);
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().to_string().find("version"), std::string::npos);

  // Valid v2 frame of the wrong type.
  const Bytes ping = encode_ping_request(PingRequest{42});
  EXPECT_FALSE(decode_client_request(ping).is_ok());
  EXPECT_FALSE(decode_connect_response(ping).is_ok());
}

// --- Replicated session table in the tree snapshot ---------------------------

TEST(DataTreeSessions, SnapshotCarriesSessionsAndRecordedResults) {
  const std::uint64_t sid = (std::uint64_t{5} << 32) | 3;
  DataTree t;
  ASSERT_TRUE(t.apply_create("/a", {}, Zxid{5, 1}).is_ok());
  ASSERT_TRUE(t.apply_create_session(sid, 5000).is_ok());
  ASSERT_TRUE(t.apply_create("/e", {}, Zxid{5, 2}, sid).is_ok());
  t.note_session_result(sid, /*cxid=*/7, Zxid{5, 2}.packed(),
                        static_cast<std::uint8_t>(Code::kOk), "/e");

  DataTree t2;
  ASSERT_TRUE(t2.deserialize(t.serialize()).is_ok());
  ASSERT_TRUE(t2.has_session(sid));
  const SessionInfo* info = t2.session(sid);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->timeout_ms, 5000u);
  EXPECT_EQ(info->last_cxid, 7u);
  EXPECT_EQ(info->last_zxid, (Zxid{5, 2}.packed()));
  EXPECT_EQ(info->last_path, "/e");
  EXPECT_EQ(t2.ephemerals_of(sid).size(), 1u);
}

// --- Deterministic protocol-level session behavior (simulator) --------------

struct SimFixture {
  harness::ClusterConfig cfg;
  std::map<NodeId, std::unique_ptr<ReplicatedTree>> trees;
  std::unique_ptr<harness::SimCluster> c;
  NodeId leader = kNoNode;

  explicit SimFixture(std::size_t n = 3) {
    cfg.n = n;
    cfg.enable_checker = false;
    cfg.boot_hook = [this](NodeId id, ZabNode& node) {
      trees[id] = std::make_unique<ReplicatedTree>(node);
    };
    c = std::make_unique<harness::SimCluster>(cfg);
    leader = c->wait_for_leader();
  }

  bool run_until(const bool& done, Duration max_wait = seconds(10)) {
    const TimePoint dl = c->sim().now() + max_wait;
    while (!done && c->sim().now() < dl) c->run_for(millis(2));
    return done;
  }

  std::uint64_t create_session_ms(std::uint32_t timeout_ms) {
    bool done = false;
    OpResult out;
    trees[leader]->create_session(timeout_ms, [&](const OpResult& r) {
      out = r;
      done = true;
    });
    if (!run_until(done) || !out.status.is_ok()) return 0;
    return out.session_id;
  }

  Status create_ephemeral(std::uint64_t sid, const std::string& path) {
    bool done = false;
    OpResult out;
    Op op;
    op.type = OpType::kCreate;
    op.path = path;
    op.ephemeral = true;
    trees[leader]->submit(std::move(op), [&](const OpResult& r) {
      out = r;
      done = true;
    }, sid);
    if (!run_until(done)) return Status::timeout("create");
    return out.status;
  }
};

TEST(SimSessions, ExpiryClosesEphemeralsAtOneZxidEverywhere) {
  SimFixture f;
  ASSERT_NE(f.leader, kNoNode);

  const std::uint64_t sid = f.create_session_ms(400);
  ASSERT_NE(sid, 0u);
  ASSERT_TRUE(f.create_ephemeral(sid, "/eph").is_ok());

  // Record where (and at which zxid) each replica applies the close.
  std::map<NodeId, std::vector<Zxid>> closes;
  const auto hook_id = f.c->add_deliver_hook([&](NodeId n, const Txn& t) {
    auto tt = decode_tree_txn(t.data);
    if (tt.is_ok() && tt.value().kind == TxnKind::kCloseSession &&
        tt.value().owner == sid) {
      closes[n].push_back(t.zxid);
    }
  });

  // Never early: well inside the lease the session and its znode live.
  f.c->run_for(millis(200));
  EXPECT_TRUE(f.trees[f.leader]->session_alive(sid));
  EXPECT_TRUE(f.trees[f.leader]->exists("/eph"));

  // Stay silent past the lease: the leader proposes kCloseSession and every
  // replica deletes the ephemerals at that one zxid.
  const TimePoint dl = f.c->sim().now() + seconds(10);
  while (closes.size() < 3 && f.c->sim().now() < dl) f.c->run_for(millis(10));
  f.c->remove_deliver_hook(hook_id);

  ASSERT_EQ(closes.size(), 3u);
  const Zxid close_zxid = closes.begin()->second.at(0);
  for (const auto& [node, zxids] : closes) {
    ASSERT_EQ(zxids.size(), 1u) << "node " << node;
    EXPECT_EQ(zxids[0], close_zxid) << "node " << node;
  }
  for (NodeId n = 1; n <= 3; ++n) {
    EXPECT_FALSE(f.trees[n]->exists("/eph")) << n;
    EXPECT_FALSE(f.trees[n]->session_alive(sid)) << n;
  }
  EXPECT_EQ(f.trees[f.leader]->active_sessions(), 0u);
}

TEST(SimSessions, ReattachExtendsLeaseAndLosesRaceAfterExpiry) {
  SimFixture f;
  ASSERT_NE(f.leader, kNoNode);
  const std::uint64_t sid = f.create_session_ms(300);
  ASSERT_NE(sid, 0u);

  // Periodic re-attach (the reconnect path) keeps the session alive far
  // beyond one lease.
  for (int i = 0; i < 4; ++i) {
    f.c->run_for(millis(150));
    bool done = false;
    OpResult out;
    f.trees[f.leader]->attach_session(sid, [&](const OpResult& r) {
      out = r;
      done = true;
    });
    ASSERT_TRUE(f.run_until(done));
    ASSERT_TRUE(out.status.is_ok()) << out.status.to_string();
    EXPECT_EQ(out.session_id, sid);
  }
  EXPECT_TRUE(f.trees[f.leader]->session_alive(sid));

  // Now go silent until the expiry commits; a late re-attach loses the race
  // deterministically — kCloseSession was ordered first.
  f.c->run_for(seconds(1));
  EXPECT_FALSE(f.trees[f.leader]->session_alive(sid));
  bool done = false;
  OpResult out;
  f.trees[f.leader]->attach_session(sid, [&](const OpResult& r) {
    out = r;
    done = true;
  });
  ASSERT_TRUE(f.run_until(done));
  EXPECT_EQ(out.status.code(), Code::kSessionExpired);
}

TEST(SimSessions, FollowerForwardedTouchRefreshesTheLease) {
  SimFixture f;
  ASSERT_NE(f.leader, kNoNode);
  const NodeId follower = f.leader == 1 ? 2 : 1;
  const std::uint64_t sid = f.create_session_ms(300);
  ASSERT_NE(sid, 0u);

  // Heartbeats arriving at a follower are forwarded to the primary's expiry
  // clock without entering the broadcast pipeline.
  for (int i = 0; i < 5; ++i) {
    f.c->run_for(millis(150));
    f.trees[follower]->touch_session(sid);
  }
  f.c->run_for(millis(100));
  EXPECT_TRUE(f.trees[f.leader]->session_alive(sid));

  f.c->run_for(seconds(1));
  EXPECT_FALSE(f.trees[f.leader]->session_alive(sid));
}

TEST(SimSessions, IdsUniqueAcrossLeadersAndTableSurvivesFailover) {
  SimFixture f;
  ASSERT_NE(f.leader, kNoNode);
  const NodeId l1 = f.leader;
  const std::uint64_t s1 = f.create_session_ms(300);
  ASSERT_NE(s1, 0u);
  ASSERT_TRUE(f.create_ephemeral(s1, "/e1").is_ok());

  f.c->crash(l1);
  const NodeId l2 = f.c->wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  ASSERT_NE(l2, l1);
  f.leader = l2;

  // The replicated table survives the failover, and the new leader's
  // rebuilt expiry clock grants a full fresh lease — the session is alive
  // even though (in wall time) far more than its timeout elapsed during the
  // election.
  EXPECT_TRUE(f.trees[l2]->session_alive(s1));
  f.c->run_for(millis(100));
  EXPECT_TRUE(f.trees[l2]->session_alive(s1));
  EXPECT_TRUE(f.trees[l2]->exists("/e1"));

  // Ids mint under the new epoch: never a collision across leaders.
  const std::uint64_t s2 = f.create_session_ms(300);
  ASSERT_NE(s2, 0u);
  EXPECT_NE(s2, s1);
  EXPECT_NE(s2 >> 32, s1 >> 32);

  // With nobody touching either session, the new leader expires both.
  f.c->run_for(seconds(2));
  EXPECT_FALSE(f.trees[l2]->session_alive(s1));
  EXPECT_FALSE(f.trees[l2]->session_alive(s2));
  EXPECT_FALSE(f.trees[l2]->exists("/e1"));
}

// --- Leader loss completes in-flight requests (PROTOCOL.md §11) -------------

// Where a follower-forwarded set_data is when its leader dies.
enum class LossPoint { kForwardedNotProposed, kDurableNotCommitted };

void run_leader_loss(LossPoint at) {
  harness::ClusterConfig cfg;
  cfg.n = 3;
  // The PROPOSE leaves with the leader's own append (no batch timer), so the
  // leader can be cut off between the two.
  cfg.node.batch_max_txns = 1;
  std::map<NodeId, std::unique_ptr<ReplicatedTree>> trees;
  cfg.boot_hook = [&trees](NodeId id, ZabNode& node) {
    trees[id] = std::make_unique<ReplicatedTree>(node);
  };
  harness::SimCluster c(cfg);
  const NodeId leader = c.wait_for_leader();
  ASSERT_NE(leader, kNoNode);
  const NodeId origin = leader == 1 ? 2 : 1;
  const NodeId other = 6 - leader - origin;
  const ZabConfig& zc = c.node(origin).config();

  // Retry through kNotReady until the node is back in broadcast.
  auto run_op = [&](NodeId at_node, auto&& issue) {
    OpResult out;
    out.status = Status::not_ready("not issued");
    const TimePoint dl = c.sim().now() + seconds(10);
    while (out.status.code() == Code::kNotReady && c.sim().now() < dl) {
      bool done = false;
      issue(*trees[at_node], [&](const OpResult& r) {
        out = r;
        done = true;
      });
      while (!done && c.sim().now() < dl) c.run_for(millis(1));
      if (out.status.code() == Code::kNotReady) c.run_for(millis(10));
    }
    return out;
  };
  auto set_k = [](std::uint64_t sid, std::uint64_t cxid) {
    return [sid, cxid](ReplicatedTree& t, ReplicatedTree::ResultFn cb) {
      Op op;
      op.type = OpType::kSetData;
      op.path = "/k";
      op.data = to_bytes("v1");
      t.submit(std::move(op), std::move(cb), sid, cxid);
    };
  };

  const OpResult s = run_op(leader, [](ReplicatedTree& t, auto cb) {
    t.create_session(10000, std::move(cb));
  });
  ASSERT_TRUE(s.status.is_ok()) << s.status.to_string();
  const std::uint64_t sid = s.session_id;
  const OpResult k = run_op(leader, [](ReplicatedTree& t, auto cb) {
    t.create("/k", to_bytes("v0"), std::move(cb));
  });
  ASSERT_TRUE(k.status.is_ok());
  ASSERT_TRUE(c.wait_delivered(k.zxid));

  std::map<NodeId, std::vector<Zxid>> sets;  // deliveries of the set per node
  const auto hook = c.add_deliver_hook([&](NodeId n, const Txn& t) {
    auto tt = decode_tree_txn(t.data);
    if (tt.is_ok() && tt.value().kind == TxnKind::kSetData) {
      sets[n].push_back(t.zxid);
    }
  });

  constexpr std::uint64_t kCxid = 7;
  int calls = 0;
  OpResult answer;
  TimePoint answered_at = 0;
  const Zxid before = c.node(leader).last_logged();
  set_k(sid, kCxid)(*trees[origin], [&](const OpResult& r) {
    ++calls;
    answer = r;
    answered_at = c.sim().now();
  });

  TimePoint lost_at = 0;
  Zxid proposed;
  if (at == LossPoint::kForwardedNotProposed) {
    // The request is on the wire; the leader dies before it lands.
    lost_at = c.sim().now();
    c.crash(leader);
  } else {
    // Let the leader propose, then cut it off from both followers: they log
    // the txn (a durable quorum without the leader) but no ACK reaches it,
    // so no COMMIT ever leaves. Then it dies.
    const TimePoint dl = c.sim().now() + seconds(1);
    while (c.node(leader).last_logged() == before && c.sim().now() < dl) {
      c.run_for(micros(5));
    }
    proposed = c.node(leader).last_logged();
    ASSERT_GT(proposed, before);
    c.network().block_pair(leader, origin);
    c.network().block_pair(leader, other);
    lost_at = c.sim().now();
    while ((c.node(origin).last_logged() < proposed ||
            c.node(other).last_logged() < proposed) &&
           c.sim().now() < dl) {
      c.run_for(micros(5));
    }
    ASSERT_GE(c.node(origin).last_logged(), proposed);
    ASSERT_GE(c.node(other).last_logged(), proposed);
    c.run_for(millis(1));  // past the disk's sync latency
    ASSERT_LT(c.node(origin).last_committed(), proposed);
    c.crash(leader);
  }

  // Answered once, "outcome unknown", as soon as the follower gives up on
  // its leader — not at the client's op_timeout.
  while (calls == 0 && c.sim().now() < lost_at + seconds(5)) {
    c.run_for(millis(1));
  }
  ASSERT_EQ(calls, 1);
  EXPECT_EQ(answer.status.code(), Code::kTimeout) << answer.status.to_string();
  EXPECT_LE(answered_at - lost_at,
            zc.follower_timeout + 2 * zc.heartbeat_interval);
  EXPECT_EQ(trees[origin]->pending_requests(), 0u);
  EXPECT_EQ(c.node(origin).metrics().counter("zab.requests.abandoned").value(),
            1u);

  const NodeId l2 = c.wait_for_leader();
  ASSERT_NE(l2, kNoNode);
  ASSERT_NE(l2, leader);
  c.network().heal();
  c.restart(leader);

  // Replay like a reconnecting client: re-attach (ordered after every
  // surviving old-epoch txn), then answer from the (session, cxid) record
  // if it holds the request, else re-execute under the same cxid.
  const OpResult att = run_op(origin, [sid](ReplicatedTree& t, auto cb) {
    t.attach_session(sid, std::move(cb));
  });
  ASSERT_TRUE(att.status.is_ok()) << att.status.to_string();
  const SessionInfo* info = trees[origin]->tree().session(sid);
  ASSERT_NE(info, nullptr);
  const bool recorded = info->last_cxid == kCxid;
  if (at == LossPoint::kDurableNotCommitted) {
    ASSERT_TRUE(recorded);
    EXPECT_EQ(info->last_code, static_cast<std::uint8_t>(Code::kOk));
    EXPECT_EQ(info->last_zxid, proposed.packed());
    ASSERT_EQ(sets[origin].size(), 1u);
    EXPECT_EQ(sets[origin][0], proposed);
  } else {
    ASSERT_FALSE(recorded);
    EXPECT_TRUE(sets[origin].empty());
    const OpResult replay = run_op(origin, set_k(sid, kCxid));
    ASSERT_TRUE(replay.status.is_ok()) << replay.status.to_string();
  }

  // The version rose by exactly 1 on every replica, the old leader included
  // once it resynced; the first answer was the only one.
  const TimePoint dl = c.sim().now() + seconds(10);
  auto converged = [&] {
    for (NodeId n = 1; n <= 3; ++n) {
      auto st = trees[n]->stat("/k");
      if (!st.is_ok() || st.value().value.version != 1) return false;
    }
    return true;
  };
  while (!converged() && c.sim().now() < dl) c.run_for(millis(5));
  c.run_for(millis(200));
  c.remove_deliver_hook(hook);
  for (NodeId n = 1; n <= 3; ++n) {
    auto st = trees[n]->stat("/k");
    ASSERT_TRUE(st.is_ok()) << "node " << n;
    EXPECT_EQ(st.value().value.version, 1u) << "node " << n;
    EXPECT_EQ(trees[n]->pending_requests(), 0u) << "node " << n;
  }
  EXPECT_EQ(calls, 1);
  for (const auto& v : c.checker().check()) ADD_FAILURE() << v;
  for (const auto& v : c.checker().check_agreement(c.up_nodes())) {
    ADD_FAILURE() << v;
  }
}

TEST(SimSessions, LeaderLossBeforeProposeAnswersForwardedWriteOnce) {
  run_leader_loss(LossPoint::kForwardedNotProposed);
}

TEST(SimSessions, LeaderLossBeforeCommitAnswersOnceAndReplayHitsRecord) {
  run_leader_loss(LossPoint::kDurableNotCommitted);
}

// --- End-to-end over TCP: failover reconnect, expiry, replay dedup ----------

template <typename Pred>
bool eventually(Pred p, int budget_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(budget_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (p()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
  }
  return p();
}

struct E2EFixture {
  RuntimeCluster cluster;
  std::vector<Endpoint> eps;

  E2EFixture()
      : cluster([] {
          RuntimeClusterConfig cfg;
          cfg.n = 3;
          cfg.with_client_service = true;
          return cfg;
        }()) {}

  NodeId up() {
    if (!cluster.start().is_ok()) return kNoNode;
    const NodeId l = cluster.wait_for_leader(seconds(15));
    if (l == kNoNode) return kNoNode;
    for (NodeId n = 1; n <= 3; ++n) {
      eps.push_back({"127.0.0.1", cluster.client_port(n)});
    }
    return l;
  }

  bool gone_everywhere(const std::string& path) {
    return eventually([&] {
      for (NodeId n = 1; n <= 3; ++n) {
        bool has = false;
        cluster.with_tree(n, [&](ReplicatedTree& t) { has = t.exists(path); });
        if (has) return false;
      }
      return true;
    });
  }

  NodeId wait_for_leader_excluding(NodeId dead) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (std::chrono::steady_clock::now() < deadline) {
      for (NodeId n = 1; n <= 3; ++n) {
        if (n == dead) continue;
        if (cluster.view(n).active_leader) return n;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return kNoNode;
  }
};

TEST(SessionsE2E, ReconnectAcrossLeaderKillKeepsEphemeralsAndWatches) {
  E2EFixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);

  // Start on the doomed leader so the kill severs this client's connection.
  std::vector<Endpoint> ordered{f.eps[l - 1]};
  for (NodeId n = 1; n <= 3; ++n) {
    if (n != l) ordered.push_back(f.eps[n - 1]);
  }
  RemoteClient client(ClientConfig{.servers = ordered,
                                   .session_timeout = seconds(8),
                                   .op_timeout = seconds(15)});
  ASSERT_TRUE(client.create("/eph", to_bytes("mine"), false, true).is_ok());
  ASSERT_TRUE(client.create("/watched", to_bytes("v0")).is_ok());
  ASSERT_TRUE(client.get("/watched", ReadOptions{.watch = true}).is_ok());
  const std::uint64_t sid = client.session_id();
  ASSERT_NE(sid, 0u);

  // Kill the leader: protocol-mute it and drop its client connections.
  f.cluster.mute_node(l);
  f.cluster.stop_client_service(l);
  const NodeId l2 = f.wait_for_leader_excluding(l);
  ASSERT_NE(l2, kNoNode);

  // The next operation transparently rotates, re-attaches the session, and
  // re-registers the watch. Same session id: the ephemeral is still ours.
  ASSERT_TRUE(eventually([&] {
    auto ex = client.exists("/eph");
    return ex.is_ok() && ex.value().value;
  }));
  EXPECT_EQ(client.session_id(), sid);
  EXPECT_GE(client.stats().reconnects, 1u);
  EXPECT_EQ(client.stats().sessions_lost, 0u);
  EXPECT_GE(client.stats().watches_reregistered, 1u);

  // Ephemerals intact on every surviving replica.
  for (NodeId n = 1; n <= 3; ++n) {
    if (n == l) continue;
    bool has = false;
    f.cluster.with_tree(n, [&](ReplicatedTree& t) { has = t.exists("/eph"); });
    EXPECT_TRUE(has) << "node " << n;
  }

  // The re-registered watch fires for a write made through a survivor.
  RemoteClient writer(ClientConfig{.servers = {f.eps[l2 - 1]},
                                   .op_timeout = seconds(15)});
  ASSERT_TRUE(writer.set("/watched", to_bytes("v1")).is_ok());
  auto ev = client.wait_watch_event(seconds(10));
  ASSERT_TRUE(ev.is_ok()) << ev.status().to_string();
  EXPECT_EQ(ev.value().event, WatchEvent::kDataChanged);
  EXPECT_EQ(ev.value().path, "/watched");

  f.cluster.unmute_node(l);
  f.cluster.stop();
}

TEST(SessionsE2E, WritesThroughFollowerReplayPromptlyAcrossLeaderKill) {
  E2EFixture f;
  const NodeId l = f.up();
  ASSERT_NE(l, kNoNode);

  // Start on a follower: its in-flight write is forwarded to the doomed
  // leader, so only the follower noticing the loss can answer it. Default
  // 5 s op_timeout: a caller that waits it out fails the latency bound.
  const NodeId follower = l == 1 ? 2 : 1;
  std::vector<Endpoint> ordered{f.eps[follower - 1]};
  for (NodeId n = 1; n <= 3; ++n) {
    if (n != follower) ordered.push_back(f.eps[n - 1]);
  }
  RemoteClient client(ClientConfig{.servers = ordered});
  ASSERT_TRUE(client.create("/ctr", {}).is_ok());

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> acked{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::int64_t> slowest_us{0};
  std::thread writer([&] {
    while (!stop.load()) {
      const auto t0 = std::chrono::steady_clock::now();
      const auto r = client.set("/ctr", to_bytes(std::to_string(acked.load())));
      const auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
      if (us > slowest_us.load()) slowest_us.store(us);
      if (r.is_ok()) {
        acked.fetch_add(1);
      } else {
        failed.fetch_add(1);
      }
    }
  });

  ASSERT_TRUE(eventually([&] { return acked.load() >= 20; }));
  f.cluster.mute_node(l);
  f.cluster.stop_client_service(l);
  const NodeId l2 = f.wait_for_leader_excluding(l);
  ASSERT_NE(l2, kNoNode);
  const std::uint64_t at_failover = acked.load();
  EXPECT_TRUE(eventually([&] { return acked.load() >= at_failover + 20; }));
  stop.store(true);
  writer.join();

  EXPECT_EQ(failed.load(), 0u);
  EXPECT_LT(slowest_us.load(), 2'500'000);
  EXPECT_GE(client.stats().replays, 1u);
  EXPECT_EQ(client.stats().sessions_lost, 0u);

  // Every acked set applied exactly once on every survivor, and nothing
  // stayed pending on them.
  const auto want = static_cast<std::uint32_t>(acked.load());
  for (NodeId n = 1; n <= 3; ++n) {
    if (n == l) continue;
    std::uint32_t version = 0;
    std::size_t pending = 0;
    EXPECT_TRUE(eventually([&] {
      f.cluster.with_tree(n, [&](ReplicatedTree& t) {
        auto st = t.stat("/ctr");
        version = st.is_ok() ? st.value().value.version : 0;
        pending = t.pending_requests();
      });
      return version == want && pending == 0;
    })) << "node " << n << " version " << version << " want " << want
        << " pending " << pending;
  }

  f.cluster.unmute_node(l);
  f.cluster.stop();
}

TEST(SessionsE2E, SilentClientExpiresEverywhereOthersSurvive) {
  E2EFixture f;
  ASSERT_NE(f.up(), kNoNode);

  RemoteClient keeper(ClientConfig{.servers = f.eps});  // default 6s lease
  ASSERT_TRUE(keeper.create("/living", {}, false, true).is_ok());

  {
    RemoteClient muted(ClientConfig{.servers = f.eps,
                                    .session_timeout = millis(300)});
    ASSERT_TRUE(muted.create("/dying", {}, false, true).is_ok());
    EXPECT_LE(muted.session_timeout(), millis(300));

    // The muted client sends nothing more; only the primary's expiry clock
    // reaps it — on every replica, because the close is a replicated txn.
    EXPECT_TRUE(f.gone_everywhere("/dying"));

    // Its session is really gone: a heartbeat now reports expiry.
    EXPECT_EQ(muted.ping().code(), Code::kSessionExpired);
  }

  // The other session was never disturbed.
  bool living = false;
  f.cluster.with_tree(1, [&](ReplicatedTree& t) { living = t.exists("/living"); });
  EXPECT_TRUE(living);
  ASSERT_TRUE(keeper.ping().is_ok());
  f.cluster.stop();
}

TEST(SessionsE2E, ReplayedWriteAnsweredFromRecordNotReExecuted) {
  E2EFixture f;
  ASSERT_NE(f.up(), kNoNode);
  RemoteClient client(ClientConfig{.servers = f.eps});
  ASSERT_TRUE(client.create("/seq", {}).is_ok());

  // A client replays an in-flight write with its original xid after a
  // reconnect; the server must answer from the recorded outcome instead of
  // executing it twice. Drive the replay explicitly through call().
  ClientRequest req;
  req.xid = 777;
  req.kind = ClientOpKind::kWrite;
  Op op;
  op.type = OpType::kCreate;
  op.path = "/seq/item-";
  op.sequential = true;
  req.ops.push_back(op);

  auto r1 = client.call(req);
  ASSERT_TRUE(r1.is_ok());
  ASSERT_EQ(r1.value().code, Code::kOk);
  ASSERT_EQ(r1.value().paths.size(), 1u);

  auto r2 = client.call(req);  // same xid: the duplicate
  ASSERT_TRUE(r2.is_ok());
  EXPECT_EQ(r2.value().code, Code::kOk);
  ASSERT_EQ(r2.value().paths.size(), 1u);
  EXPECT_EQ(r2.value().paths[0], r1.value().paths[0]);
  EXPECT_EQ(r2.value().zxid, r1.value().zxid);

  auto kids = client.get_children("/seq");
  ASSERT_TRUE(kids.is_ok());
  EXPECT_EQ(kids.value().value.size(), 1u);  // executed once, answered twice
  f.cluster.stop();
}

TEST(SessionsE2E, PingRefreshesLeaseBeyondTimeout) {
  E2EFixture f;
  ASSERT_NE(f.up(), kNoNode);
  RemoteClient client(ClientConfig{.servers = f.eps,
                                   .session_timeout = millis(300)});
  ASSERT_TRUE(client.create("/pinned", {}, false, true).is_ok());

  // Heartbeat for 4x the lease: the session (and its ephemeral) must live.
  const auto until =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(1200);
  while (std::chrono::steady_clock::now() < until) {
    ASSERT_TRUE(client.ping().is_ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  bool has = false;
  f.cluster.with_tree(1, [&](ReplicatedTree& t) { has = t.exists("/pinned"); });
  EXPECT_TRUE(has);
  EXPECT_GE(client.stats().pings, 10u);
  f.cluster.stop();
}

}  // namespace
}  // namespace zab::pb
