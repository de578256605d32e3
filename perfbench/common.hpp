#pragma once
// Plumbing shared by the workloads: options, the report every run prints,
// the input generator, set-up timing, and resident-set readout.

#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "semiring/arithmetic.hpp"
#include "sparse/matrix.hpp"

namespace perfbench {

using S = hyperspace::semiring::PlusTimes<double>;
using Index = hyperspace::sparse::Index;
using Matrix = hyperspace::sparse::Matrix<double>;
using Triples = std::vector<hyperspace::sparse::Triple<double>>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_path;  ///< traced run: where the span store is written
  std::map<std::string, std::string> params;  ///< the workload record's knobs

  double num(const std::string& key) const {
    const auto it = params.find(key);
    if (it == params.end()) {
      throw std::invalid_argument("missing workload parameter: " + key);
    }
    return std::stod(it->second);
  }
  std::size_t count(const std::string& key) const {
    const double v = num(key);
    if (v < 0) throw std::invalid_argument("negative parameter: " + key);
    return static_cast<std::size_t>(v);
  }
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t samples = 0;
};

/// Everything one run reports. `e2e` are the gated end-to-end metrics,
/// `info` end-to-end figures printed but not gated, `layer` the traced
/// run's per-layer metrics, and `exact` the counts that must repeat for a
/// given seed.
struct Report {
  std::vector<Metric> e2e, info, layer;
  std::vector<std::pair<std::string, std::uint64_t>> exact;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Peak resident set, read by the workload when its timed phases end.
  double peak_rss_mb = 0;
  std::vector<std::string> failures;  ///< first few reasons, for the log

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(why);
  }
};

/// Median and nearest-rank tail of latency samples (ns) in microseconds.
/// The tail is absent when too few samples lie beyond it.
struct Summary {
  std::optional<double> p50_us, p99_us;
  std::size_t n = 0;
};
inline Summary summarize_ns(const std::vector<std::int64_t>& ns) {
  std::vector<double> us(ns.size());
  for (std::size_t i = 0; i < ns.size(); ++i) us[i] = static_cast<double>(ns[i]) / 1e3;
  Summary s;
  s.n = us.size();
  s.p50_us = percentile(us, 50);
  s.p99_us = percentile(us, 99);
  return s;
}

/// R-MAT edge stream (Graph500 quadrant probabilities) as (src, dst,
/// weight) triples, drawn by the benchmark itself so the inputs never
/// depend on library code.
inline Triples rmat(int scale, double edge_factor, std::uint64_t seed) {
  Rng rng(seed);
  const auto m = static_cast<std::size_t>(
      edge_factor * static_cast<double>(Index{1} << scale));
  Triples out(m);
  for (auto& e : out) {
    Index r = 0, c = 0;
    for (int level = 0; level < scale; ++level) {
      const double u = rng.uniform();
      r <<= 1;
      c <<= 1;
      if (u < 0.57) {
      } else if (u < 0.76) {
        c |= 1;
      } else if (u < 0.95) {
        r |= 1;
      } else {
        r |= 1;
        c |= 1;
      }
    }
    e = {r, c, 1.0 + rng.uniform()};
  }
  return out;
}

/// Run `build` `reps` times and return the median of the seconds each run
/// reports timing itself (input copies stay outside its clock). `last`
/// tells the final run, whose product the caller keeps.
inline double median_setup(std::size_t reps,
                           const std::function<double(bool last)>& build) {
  std::vector<double> s;
  for (std::size_t i = 0; i < reps; ++i) s.push_back(build(i + 1 == reps));
  return *percentile(s, 50);
}

inline double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e9;
}

/// Peak resident set of this process (VmHWM) in MB (10^6 bytes), since
/// the start or the last reset_peak_rss().
inline double read_peak_rss_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) * 1024.0 / 1e6;
    }
  }
  return 0;
}

/// Lower the peak resident set to the current one, so that the peak then
/// read covers what follows and not the harness's input generation.
inline void reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

/// Byte-for-byte equality: shape, row structure, columns and the value
/// bits. The serving contract promises exactly this, floats included.
inline bool same_bytes(const Matrix& a, const Matrix& b) {
  if (a.nrows() != b.nrows() || a.ncols() != b.ncols()) return false;
  const auto va = a.view();
  const auto vb = b.view();
  const auto eq = [](auto x, auto y) {
    return x.size() == y.size() &&
           (x.empty() || std::memcmp(x.data(), y.data(), x.size_bytes()) == 0);
  };
  return eq(va.row_ids, vb.row_ids) && eq(va.row_ptr, vb.row_ptr) &&
         eq(va.cols, vb.cols) && eq(va.vals, vb.vals);
}

/// Return at `due` (steady-clock ns). `spin` busy-waits throughout;
/// otherwise the thread sleeps and spins only the last 100 µs. On a
/// virtual machine a sleeping vCPU can wake milliseconds late when the
/// host is busy, so the read generator spins and only the writer sleeps
/// (its lateness lands in mutate latency, which is not gated).
void wait_until(std::int64_t due, bool spin);

/// Pin the kernel worker count for this workload (util::set_num_threads).
void pin_kernel_workers(int n);

/// CPU placement for live-fanout's loops: `generator_cpu(false)` restricts
/// the calling thread to every CPU but the last, and `generator_cpu(true)`
/// to the last CPU alone. Called with false before the engine is built,
/// every thread the harness or the engine starts inherits the smaller set,
/// so the spinning generator (or closed-loop client) can then take the
/// last CPU without an engine thread ever being woken behind it. A no-op
/// on a single CPU.
void generator_cpu(bool alone);

/// Per-layer metric bookkeeping for the traced run: span names are
/// registered once and percentiles are taken over their durations.
class Trace {
 public:
  std::uint32_t name(const std::string& n) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == n) return i;
    }
    names_.push_back(n);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }
  const std::vector<std::string>& names() const { return names_; }
  SpanStore& store() { return store_; }
  bool on() const { return store_.enabled(); }

  /// Time `fn` as a span named `n` (parent/req optional) when tracing.
  template <typename Fn>
  decltype(auto) span(std::uint32_t n, std::int64_t parent, std::uint64_t req,
                      Fn&& fn) {
    if (!on()) return fn();
    struct Guard {
      SpanStore& st;
      Span s;
      ~Guard() {
        s.end_ns = now_ns();
        st.add(s);
      }
    } g{store_, Span{n, parent, req, now_ns(), 0}};
    return fn();
  }

  /// Durations (ns) of every span named `n`.
  std::vector<std::int64_t> durations(std::uint32_t n) const {
    std::vector<std::int64_t> d;
    for (std::size_t i = 0; i < store_.size(); ++i) {
      if (store_[i].name == n) d.push_back(store_[i].dur());
    }
    return d;
  }
  /// Self times (ns) of every span named `n`.
  std::vector<std::int64_t> self_times(std::uint32_t n) const {
    const auto self = store_.self_times();
    std::vector<std::int64_t> d;
    for (std::size_t i = 0; i < store_.size(); ++i) {
      if (store_[i].name == n) d.push_back(self[i]);
    }
    return d;
  }

 private:
  std::vector<std::string> names_;
  SpanStore store_;
};

/// Add `name` = p50 (µs) of the spans named `span` to the layer metrics.
inline void layer_p50(Report& r, const Trace& tr, std::uint32_t span,
                      const std::string& name) {
  const auto s = summarize_ns(tr.durations(span));
  if (s.p50_us) r.layer.push_back({name, *s.p50_us, "us", s.n});
}

// The workloads. Each fills `r` and returns nothing; answers that do not
// match their reference are recorded as failures, never thrown.
void run_live_fanout(const Options& o, Report& r, Trace& tr);
void run_keyed_planner(const Options& o, Report& r, Trace& tr);
void run_triangle_count(const Options& o, Report& r, Trace& tr);

}  // namespace perfbench
