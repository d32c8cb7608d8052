// A client connection built on the public client codec
// (pb::encode_*/decode_*), used by the two steady workloads. Unlike
// pb::RemoteClient it can keep many requests outstanding on one connection
// (responses are matched by xid), and in the traced run it records a span
// per op around the codec and socket calls. It follows RemoteClient's
// session rules: one session per connection, kSession reads fenced at the
// highest zxid the connection has observed. It never reconnects by itself;
// the steady workloads replace a connection on a schedule (continue_from).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "pb/client_protocol.h"

namespace perfbench {

/// Client-side stamps of one op (monotonic ns). Child spans: encode
/// [start, encoded], send [encoded, sent], wait [sent, received],
/// decode [received, decoded].
struct ClientSpan {
  std::uint64_t session = 0;
  std::uint64_t xid = 0;
  std::uint8_t kind = 0;  // pb::ClientOpKind
  std::int64_t start = 0;
  std::int64_t encoded = 0;
  std::int64_t sent = 0;
  std::int64_t received = 0;
  std::int64_t decoded = 0;
};

class CodecConn {
 public:
  CodecConn() = default;
  ~CodecConn();
  CodecConn(const CodecConn&) = delete;
  CodecConn& operator=(const CodecConn&) = delete;

  /// TCP connect to 127.0.0.1:port and run the session handshake.
  zab::Status connect(std::uint16_t port, zab::Duration timeout);
  /// Encode every request and write them all with one send().
  zab::Status send(const std::vector<zab::pb::ClientRequest>& reqs);
  /// Block until the next response arrives (or the deadline passes).
  zab::Status recv(zab::pb::ClientResponse* out, std::int64_t deadline_ns);
  /// Read what the socket holds without blocking; decode every complete
  /// response into `out`.
  zab::Status pump(std::vector<zab::pb::ClientResponse>& out);
  /// Graceful session close (best effort).
  void close_session();
  /// After connect(): carry on from `prev`, an earlier connection of the
  /// same client, as RemoteClient does when it reconnects. Xids keep
  /// increasing and the session fence never goes back.
  void continue_from(const CodecConn& prev);

  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] std::uint64_t session() const { return session_; }
  [[nodiscard]] std::uint64_t next_xid() { return next_xid_++; }
  /// Highest packed zxid observed; kSession reads carry it as their fence.
  [[nodiscard]] std::uint64_t fence() const { return fence_; }

  /// Traced run: record one ClientSpan per completed op into `sink`.
  void record_spans(std::vector<ClientSpan>* sink) { spans_ = sink; }

 private:
  zab::Status handshake(std::uint16_t port, std::int64_t deadline_ns);
  zab::Status fill(bool block, std::int64_t deadline_ns);
  /// Next complete frame in the input buffer, if any.
  bool next_frame(std::span<const std::uint8_t>* frame);
  zab::Status take_response(std::span<const std::uint8_t> frame,
                            zab::pb::ClientResponse* out, bool* got);

  int fd_ = -1;
  std::uint64_t session_ = 0;
  std::uint64_t next_xid_ = 1;
  std::uint64_t fence_ = 0;
  std::vector<std::uint8_t> in_;
  std::size_t in_off_ = 0;
  std::size_t in_end_ = 0;
  std::vector<std::uint8_t> out_;
  std::int64_t last_recv_ns_ = 0;
  std::vector<ClientSpan>* spans_ = nullptr;
  std::unordered_map<std::uint64_t, ClientSpan> open_;
};

}  // namespace perfbench
