// Shared pieces of the production-path benchmark: run options, latency
// samples, the ledger the correctness gate checks, and the report that
// becomes the benchmark's output.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/buffer.h"

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed so far by the calling thread.
std::int64_t thread_cpu_ns();
/// CPU time (user + system) consumed so far by the whole process.
std::int64_t process_cpu_ns();

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string data_dir;   // fresh per run; removed by the caller afterwards
  std::string trace_out;  // client span dump of the traced run ("" = none)
};

/// One latency (or duration) population in nanoseconds.
class Samples {
 public:
  void add(std::int64_t ns) { v_.push_back(ns); }
  void append(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  [[nodiscard]] std::size_t count() const { return v_.size(); }
  /// Quantile in microseconds (nearest rank); 0 when empty.
  [[nodiscard]] double quantile_us(double q);

 private:
  std::vector<std::int64_t> v_;
  bool sorted_ = false;
};

[[nodiscard]] double median(std::vector<double> v);

// --- Values and the correctness ledger --------------------------------------

/// Every value the benchmark writes is 128 bytes: a 16-byte header naming
/// the key, the writer and the writer's sequence number, then filler derived
/// from the run seed. A read therefore identifies exactly which write it saw.
inline constexpr std::size_t kValueBytes = 128;
inline constexpr std::uint32_t kPreloadWriter = 0xFFFF;

struct ValueId {
  std::uint32_t key = 0;
  std::uint32_t writer = 0;
  std::uint64_t seq = 0;
  friend bool operator==(const ValueId&, const ValueId&) = default;
};

zab::Bytes make_value(const ValueId& id, std::uint64_t seed);
/// False when the bytes are not a well-formed benchmark value.
bool parse_value(const zab::Bytes& b, ValueId* out);
std::string key_path(std::uint32_t key);

struct WriteRec {
  ValueId id;
  std::uint64_t xid = 0;   // issue order within one client
  std::uint64_t zxid = 0;  // packed commit zxid from the response
};
struct ReadRec {
  ValueId id;                   // what the read returned
  std::uint64_t watermark = 0;  // replica's delivered zxid when served
};

/// Acknowledged writes and served reads of one client, in issue order.
/// Single-threaded; the gate merges all clients' ledgers afterwards.
struct Ledger {
  std::vector<WriteRec> writes;
  std::vector<ReadRec> reads;
};

/// Outcome of the gate. A violation fails the run; it is never scored.
struct Verdict {
  std::vector<std::string> violations;
  void fail(std::string why) {
    if (violations.size() < 20) violations.push_back(std::move(why));
  }
  [[nodiscard]] bool ok() const { return violations.empty(); }
};

/// Expected final state of one key, derived from every acked write.
struct KeyState {
  ValueId value;
  std::uint64_t zxid = 0;      // mzxid the replicas must hold
  std::uint32_t sets = 0;      // setData count = the znode's data version
};

/// Checks each client's acked writes for FIFO client order (zxids strictly
/// rise in issue order) and every read for being exactly the value the
/// replica held at its watermark; returns the expected final key states.
std::vector<KeyState> check_ledgers(const std::vector<const Ledger*>& ledgers,
                                    std::uint32_t num_keys, Verdict& v);

// --- Report -------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> layers;
  std::vector<std::string> notes;  // printed above the result line
  Verdict verdict;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    layers.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string s) { notes.push_back(std::move(s)); }
};

}  // namespace perfbench
