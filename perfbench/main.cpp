// perfbench — one workload per invocation, driven by run.py.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--param key=value ...]
//
// Prints a human-readable report (every metric with its unit and sample
// count, the exact counts, a host stamp) and, as the last line,
// `RESULT {json}` for run.py. Wrong answers are counted as failed
// operations; the exit code is 0 whenever the run itself completed.

#include <sched.h>
#include <sys/prctl.h>

#include <cstdio>
#include <exception>
#include <sstream>
#include <string>
#include <thread>

#include "common.hpp"
#include "util/parallel.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void wait_until(std::int64_t due, bool spin) {
  constexpr std::int64_t kSpin = 100'000;
  const std::int64_t now = now_ns();
  if (!spin && due - now > kSpin) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(due - now - kSpin));
  }
  while (now_ns() < due) {
  }
}

void pin_kernel_workers(int n) { hyperspace::util::set_num_threads(n); }

namespace {
cpu_set_t& all_cpus() {
  static cpu_set_t set = [] {
    cpu_set_t s;
    CPU_ZERO(&s);
    sched_getaffinity(0, sizeof(s), &s);
    return s;
  }();
  return set;
}
int last_cpu() {
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all_cpus())) last = c;
  }
  return CPU_COUNT(&all_cpus()) > 1 ? last : -1;
}
}  // namespace

void generator_cpu(bool alone) {
  const int last = last_cpu();
  if (last < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  if (alone) {
    CPU_SET(last, &set);
  } else {
    set = all_cpus();
    CPU_CLR(last, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

namespace {

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string s = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i) s += ",";
    s += "\"" + ms[i].name + "\":{\"value\":" + json_num(ms[i].value) +
         ",\"unit\":\"" + ms[i].unit +
         "\",\"samples\":" + std::to_string(ms[i].samples) + "}";
  }
  return s + "}";
}

void print_metrics(const char* kind, const std::vector<Metric>& ms) {
  for (const auto& m : ms) {
    std::printf("%-6s %-28s %16.6f %-6s n=%zu\n", kind, m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      const std::string v = argv[++i];
      if (a == "--workload") {
        o.workload = v;
      } else if (a == "--seed") {
        o.seed = std::stoull(v);
      } else if (a == "--seconds") {
        o.seconds = std::stod(v);
      } else if (a == "--trace") {
        o.trace = v == "1";
      } else if (a == "--spans") {
        o.spans_path = v;
      } else if (a == "--param") {
        const auto eq = v.find('=');
        if (eq == std::string::npos) throw std::invalid_argument("bad --param " + v);
        o.params[v.substr(0, eq)] = v.substr(eq + 1);
      } else {
        throw std::invalid_argument("unknown flag " + a);
      }
    }
    if (!(o.seconds > 0)) throw std::invalid_argument("--seconds must be > 0");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }

  // Timer slack makes sleeping generator threads wake up to 50 µs late.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  std::printf("host   nproc=%u build=%s compiler=%s openmp=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              __VERSION__,
#if defined(_OPENMP)
              "on"
#else
              "off"
#endif
  );
  std::printf("run    workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  std::fflush(stdout);

  Report r;
  Trace tr;
  try {
    if (o.workload == "live-fanout") {
      run_live_fanout(o, r, tr);
    } else if (o.workload == "keyed-planner") {
      run_keyed_planner(o, r, tr);
    } else if (o.workload == "triangle-count") {
      run_triangle_count(o, r, tr);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload %s\n", o.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", o.workload.c_str(), e.what());
    return 1;
  }
  r.e2e.push_back({"peak_rss_mb", r.peak_rss_mb, "MB", 1});

  if (tr.on()) {
    if (tr.store().overflowed()) {
      std::fprintf(stderr, "perfbench: span store overflowed\n");
      return 1;
    }
    if (!o.spans_path.empty()) tr.store().write(o.spans_path, tr.names());
    std::printf("spans  %zu recorded -> %s\n", tr.store().size(),
                o.spans_path.empty() ? "(not written)" : o.spans_path.c_str());
  }

  print_metrics("e2e", r.e2e);
  print_metrics("info", r.info);
  print_metrics("layer", r.layer);
  for (const auto& [k, v] : r.exact) {
    std::printf("exact  %-28s %llu\n", k.c_str(), static_cast<unsigned long long>(v));
  }
  for (const auto& f : r.failures) std::printf("FAIL   %s\n", f.c_str());
  std::printf("ops    attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  std::string exact = "{";
  for (std::size_t i = 0; i < r.exact.size(); ++i) {
    if (i) exact += ",";
    exact += "\"" + r.exact[i].first + "\":" + std::to_string(r.exact[i].second);
  }
  exact += "}";
  std::printf("RESULT {\"attempted\":%llu,\"failed\":%llu,\"e2e\":%s,\"info\":%s,"
              "\"layer\":%s,\"exact\":%s}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              json_metrics(r.e2e).c_str(), json_metrics(r.info).c_str(),
              json_metrics(r.layer).c_str(), exact.c_str());
  return 0;
}
