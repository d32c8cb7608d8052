// zab_perfbench: one run of one workload against the production-shaped
// cluster. Prints the machine record, the resolved config and a readable
// report, then the result as one JSON object on the last line of stdout.
//
//   zab_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --data-dir <fresh dir> [--trace-out <csv>] [--git-sha <sha>]
//
// Exit code 0 when the run completed and passed the correctness gate; 1
// after printing a result with "correct": false; 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cluster.h"
#include "workloads.h"

namespace {

using perfbench::Metric;

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

std::string number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "zab_perfbench: %s\nusage: zab_perfbench --workload "
               "writes_pipelined|mixed_sync|leader_failover --seed N "
               "--seconds S --trace 0|1 --data-dir DIR [--trace-out CSV] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options o;
  std::string git_sha = "unknown";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      o.trace = v == "1";
    } else if (a == "--data-dir") {
      o.data_dir = v;
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else if (a == "--git-sha") {
      git_sha = v;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  bool known = false;
  for (const char* w : perfbench::kWorkloads) known = known || o.workload == w;
  if (!known) return usage("unknown workload");
  if (o.seconds < 1 || o.seconds > 600) return usage("--seconds out of range");
  if (o.data_dir.empty()) return usage("--data-dir is required");

  const std::vector<std::string> removed = perfbench::pin_environment();
  std::printf("workload=%s seed=%llu seconds=%d trace=%d git_sha=%s\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, git_sha.c_str());
  for (const std::string& c : perfbench::resolved_config()) {
    std::printf("config: %s\n", c.c_str());
  }
  for (const std::string& e : removed) {
    std::printf("config: ignored environment %s\n", e.c_str());
  }
  std::fflush(stdout);

  perfbench::Report r = perfbench::run_workload(o);

  for (const std::string& n : r.notes) std::printf("%s\n", n.c_str());
  const std::vector<Metric>& ms = o.trace ? r.layers : r.end_to_end;
  for (const Metric& m : ms) {
    std::printf("  %-40s %16.3f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const std::string& v : r.verdict.violations) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  std::string out = "{\"correct\": ";
  out += r.verdict.ok() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i != 0) out += ", ";
    out += '"';
    out += json_escape(ms[i].name);
    out += "\": {\"value\": ";
    out += number(ms[i].value);
    out += ", \"unit\": \"";
    out += json_escape(ms[i].unit);
    out += "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return r.verdict.ok() ? 0 : 1;
}
