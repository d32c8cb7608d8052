#include "bench.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <iterator>

namespace perfbench {

std::int64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t process_cpu_ns() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto ns = [](const timeval& tv) {
    return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
           static_cast<std::int64_t>(tv.tv_usec) * 1000;
  };
  return ns(ru.ru_utime) + ns(ru.ru_stime);
}

double Samples::quantile_us(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v_.size())));
  const std::size_t i = rank == 0 ? 0 : std::min(rank - 1, v_.size() - 1);
  return static_cast<double>(v_[i]) / 1000.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

// --- Values -------------------------------------------------------------------

namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

zab::Bytes make_value(const ValueId& id, std::uint64_t seed) {
  zab::Bytes b(kValueBytes);
  std::memcpy(b.data(), &id.key, 4);
  std::memcpy(b.data() + 4, &id.writer, 4);
  std::memcpy(b.data() + 8, &id.seq, 8);
  std::uint64_t s = seed ^ (static_cast<std::uint64_t>(id.key) << 32) ^ id.seq;
  for (std::size_t i = 16; i < kValueBytes; i += 8) {
    const std::uint64_t r = splitmix(s);
    std::memcpy(b.data() + i, &r, std::min<std::size_t>(8, kValueBytes - i));
  }
  return b;
}

bool parse_value(const zab::Bytes& b, ValueId* out) {
  if (b.size() != kValueBytes) return false;
  std::memcpy(&out->key, b.data(), 4);
  std::memcpy(&out->writer, b.data() + 4, 4);
  std::memcpy(&out->seq, b.data() + 8, 8);
  return true;
}

std::string key_path(std::uint32_t key) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "/k%05u", key);
  return buf;
}

// --- Gate ---------------------------------------------------------------------

std::vector<KeyState> check_ledgers(const std::vector<const Ledger*>& ledgers,
                                    std::uint32_t num_keys, Verdict& v) {
  std::vector<std::vector<WriteRec>> per_key(num_keys);
  for (std::size_t c = 0; c < ledgers.size(); ++c) {
    std::vector<WriteRec> ws = ledgers[c]->writes;
    std::sort(ws.begin(), ws.end(),
              [](const WriteRec& a, const WriteRec& b) { return a.xid < b.xid; });
    std::uint64_t prev = 0;
    for (const WriteRec& w : ws) {
      // Zab's FIFO client order: one client's writes commit in issue order.
      if (w.zxid <= prev) {
        v.fail("client " + std::to_string(c) + ": write xid " +
               std::to_string(w.xid) + " committed at zxid " +
               std::to_string(w.zxid) + ", not after its predecessor " +
               std::to_string(prev));
      }
      prev = w.zxid;
      if (w.id.key >= num_keys) {
        v.fail("write to unknown key " + std::to_string(w.id.key));
        continue;
      }
      per_key[w.id.key].push_back(w);
    }
  }

  std::vector<KeyState> states(num_keys);
  for (std::uint32_t k = 0; k < num_keys; ++k) {
    auto& ws = per_key[k];
    std::sort(ws.begin(), ws.end(), [](const WriteRec& a, const WriteRec& b) {
      return a.zxid < b.zxid;
    });
    for (std::size_t i = 1; i < ws.size(); ++i) {
      if (ws[i].zxid == ws[i - 1].zxid) {
        v.fail("two acked writes to key " + std::to_string(k) +
               " share zxid " + std::to_string(ws[i].zxid));
      }
    }
    if (ws.empty()) {
      v.fail("key " + std::to_string(k) + " was never created");
      continue;
    }
    states[k].value = ws.back().id;
    states[k].zxid = ws.back().zxid;
    for (const WriteRec& w : ws) {
      if (w.id.writer != kPreloadWriter) ++states[k].sets;
    }
  }

  // A read served at watermark W must return exactly the value of the last
  // acked write to its key with zxid <= W (every write the run issued was
  // acked, so the ledger holds the replica's whole history of the key).
  for (const Ledger* l : ledgers) {
    for (const ReadRec& r : l->reads) {
      if (r.id.key >= num_keys) {
        v.fail("read returned a value of unknown key " +
               std::to_string(r.id.key));
        continue;
      }
      const auto& ws = per_key[r.id.key];
      auto it = std::upper_bound(
          ws.begin(), ws.end(), r.watermark,
          [](std::uint64_t z, const WriteRec& w) { return z < w.zxid; });
      if (it == ws.begin()) {
        v.fail("read of key " + std::to_string(r.id.key) +
               " at watermark " + std::to_string(r.watermark) +
               " returned a value no acked write had produced yet");
        continue;
      }
      const WriteRec& expect = *std::prev(it);
      if (!(expect.id == r.id)) {
        v.fail("read of key " + std::to_string(r.id.key) + " at watermark " +
               std::to_string(r.watermark) + " returned writer " +
               std::to_string(r.id.writer) + " seq " +
               std::to_string(r.id.seq) + ", expected writer " +
               std::to_string(expect.id.writer) + " seq " +
               std::to_string(expect.id.seq));
      }
    }
  }
  return states;
}

}  // namespace perfbench
