#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "bench.h"

namespace perfbench {

using zab::Status;
namespace pb = zab::pb;

namespace {

constexpr std::size_t kReadChunk = 64 * 1024;
constexpr std::uint32_t kMaxFrame = 16u << 20;

void append_frame(std::vector<std::uint8_t>& out, const zab::Bytes& payload) {
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::size_t at = out.size();
  out.resize(at + 4 + payload.size());
  std::memcpy(out.data() + at, &len, 4);  // little-endian host, as BufWriter
  std::memcpy(out.data() + at + 4, payload.data(), payload.size());
}

Status send_all(int fd, const std::vector<std::uint8_t>& buf) {
  std::size_t off = 0;
  while (off < buf.size()) {
    const ssize_t n = ::send(fd, buf.data() + off, buf.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::io_error(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::ok();
}

}  // namespace

CodecConn::~CodecConn() {
  if (fd_ >= 0) ::close(fd_);
}

Status CodecConn::connect(std::uint16_t port, zab::Duration timeout) {
  // A replica still syncing with a fresh leader refuses sessions with
  // kNotReady; like RemoteClient, try again until the deadline.
  const std::int64_t deadline = now_ns() + timeout;
  while (true) {
    Status st = handshake(port, deadline);
    if (st.code() != zab::Code::kNotReady || now_ns() > deadline) return st;
    ::close(fd_);
    fd_ = -1;
    in_off_ = in_end_ = 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

Status CodecConn::handshake(std::uint16_t port, std::int64_t deadline) {
  fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd_ < 0) return Status::io_error("socket");
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return Status::io_error("connect port " + std::to_string(port));
  }
  pb::ConnectRequest creq;
  creq.timeout_ms = 6000;  // ClientConfig's default session_timeout
  out_.clear();
  append_frame(out_, pb::encode_connect_request(creq));
  if (Status st = send_all(fd_, out_); !st.is_ok()) return st;

  while (true) {
    std::span<const std::uint8_t> frame;
    while (!next_frame(&frame)) {
      if (Status st = fill(true, deadline); !st.is_ok()) return st;
    }
    if (pb::classify_frame(frame) != pb::FrameType::kConnectAck) continue;
    auto ack = pb::decode_connect_response(frame);
    if (!ack.is_ok()) return ack.status();
    if (ack.value().code != zab::Code::kOk) {
      return Status(ack.value().code, "connect refused");
    }
    session_ = ack.value().session_id;
    fence_ = ack.value().last_zxid;
    return Status::ok();
  }
}

Status CodecConn::send(const std::vector<pb::ClientRequest>& reqs) {
  out_.clear();
  if (spans_ == nullptr) {
    for (const auto& r : reqs) append_frame(out_, pb::encode_client_request(r));
    return send_all(fd_, out_);
  }
  std::vector<ClientSpan*> batch;  // unordered_map nodes never move
  batch.reserve(reqs.size());
  for (const auto& r : reqs) {
    ClientSpan s;
    s.session = session_;
    s.xid = r.xid;
    s.kind = static_cast<std::uint8_t>(r.kind);
    s.start = now_ns();
    append_frame(out_, pb::encode_client_request(r));
    s.encoded = now_ns();
    batch.push_back(&(open_[r.xid] = s));
  }
  Status st = send_all(fd_, out_);
  const std::int64_t sent = now_ns();
  for (ClientSpan* s : batch) s->sent = sent;
  return st;
}

Status CodecConn::fill(bool block, std::int64_t deadline_ns) {
  // in_[in_off_, in_end_) holds unparsed bytes; compact before reading more.
  if (in_off_ == in_end_) {
    in_off_ = in_end_ = 0;
  } else if (in_off_ > kReadChunk) {
    std::memmove(in_.data(), in_.data() + in_off_, in_end_ - in_off_);
    in_end_ -= in_off_;
    in_off_ = 0;
  }
  if (in_.size() < in_end_ + kReadChunk) in_.resize(in_end_ + kReadChunk);
  while (true) {
    if (block) {
      const std::int64_t left = deadline_ns - now_ns();
      if (left <= 0) return Status::timeout("recv");
      pollfd p{fd_, POLLIN, 0};
      const int rc = ::poll(&p, 1, static_cast<int>(left / 1'000'000) + 1);
      if (rc < 0 && errno != EINTR) return Status::io_error("poll");
      if (rc <= 0) continue;
    }
    const ssize_t n = ::recv(fd_, in_.data() + in_end_, in_.size() - in_end_,
                             MSG_DONTWAIT);
    if (n > 0) {
      in_end_ += static_cast<std::size_t>(n);
      if (spans_ != nullptr) last_recv_ns_ = now_ns();
      return Status::ok();
    }
    if (n == 0) return Status::closed("server closed connection");
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      if (!block) return Status::ok();
      continue;
    }
    return Status::io_error(std::string("recv: ") + std::strerror(errno));
  }
}

bool CodecConn::next_frame(std::span<const std::uint8_t>* frame) {
  const std::size_t avail = in_end_ - in_off_;
  if (avail < 4) return false;
  std::uint32_t len = 0;
  std::memcpy(&len, in_.data() + in_off_, 4);
  if (len > kMaxFrame) {
    // Hostile or corrupt length: surface it as an empty frame, which no
    // decoder accepts.
    *frame = {};
    in_off_ = in_end_;
    return true;
  }
  if (avail < 4 + static_cast<std::size_t>(len)) return false;
  *frame = std::span<const std::uint8_t>(in_.data() + in_off_ + 4, len);
  in_off_ += 4 + len;
  return true;
}

Status CodecConn::take_response(std::span<const std::uint8_t> frame,
                                pb::ClientResponse* out, bool* got) {
  *got = false;
  switch (pb::classify_frame(frame)) {
    case pb::FrameType::kWatchEvent:
    case pb::FrameType::kPong:
      return Status::ok();
    case pb::FrameType::kResponse:
      break;
    default:
      return Status::corruption("unexpected frame from server");
  }
  auto r = pb::decode_client_response(frame);
  if (!r.is_ok()) return r.status();
  *out = std::move(r).take();
  if (out->zxid.packed() > fence_) fence_ = out->zxid.packed();
  *got = true;
  if (spans_ != nullptr) {
    auto it = open_.find(out->xid);
    if (it != open_.end()) {
      it->second.received = last_recv_ns_;
      it->second.decoded = now_ns();
      spans_->push_back(it->second);
      open_.erase(it);
    }
  }
  return Status::ok();
}

Status CodecConn::recv(pb::ClientResponse* out, std::int64_t deadline_ns) {
  while (true) {
    std::span<const std::uint8_t> frame;
    while (!next_frame(&frame)) {
      if (Status st = fill(true, deadline_ns); !st.is_ok()) return st;
    }
    bool got = false;
    if (Status st = take_response(frame, out, &got); !st.is_ok()) return st;
    if (got) return Status::ok();
  }
}

Status CodecConn::pump(std::vector<pb::ClientResponse>& out) {
  if (Status st = fill(false, 0); !st.is_ok()) return st;
  std::span<const std::uint8_t> frame;
  while (next_frame(&frame)) {
    pb::ClientResponse r;
    bool got = false;
    if (Status st = take_response(frame, &r, &got); !st.is_ok()) return st;
    if (got) out.push_back(std::move(r));
  }
  return Status::ok();
}

void CodecConn::close_session() {
  if (fd_ < 0 || session_ == 0) return;
  pb::ClientRequest req;
  req.kind = pb::ClientOpKind::kCloseSession;
  req.xid = next_xid();
  out_.clear();
  append_frame(out_, pb::encode_client_request(req));
  if (!send_all(fd_, out_).is_ok()) return;
  pb::ClientResponse resp;
  (void)recv(&resp, now_ns() + 500'000'000);
}

void CodecConn::continue_from(const CodecConn& prev) {
  next_xid_ = std::max(next_xid_, prev.next_xid_);
  fence_ = std::max(fence_, prev.fence_);
}

}  // namespace perfbench
