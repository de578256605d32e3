#pragma once
// Library-independent harness pieces: seeded generators, the Poisson
// arrival schedule, nearest-rank percentiles, generator-lateness
// accounting, and the in-memory span store with self-time computation.
// Nothing here includes the library, so selftest.cpp checks it in
// isolation and a change to the library cannot change the inputs.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// xoshiro256** seeded through splitmix64: the benchmark's only source of
/// randomness, so a seed fixes every input.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) {
    for (auto& w : s_) {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      w = z ^ (z >> 31);
    }
  }
  std::uint64_t next() {
    const std::uint64_t r = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return r;
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) {
    return static_cast<std::uint64_t>(uniform() * static_cast<double>(n));
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  std::uint64_t s_[4];
};

/// Derive an independent stream seed for one purpose of one run.
inline std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t purpose) {
  return seed * 0x100000001b3ULL + purpose * 0x9e3779b97f4a7c15ULL;
}

/// Zipf(s) over ranks [0, n) by inverse CDF: rank r has weight 1/(r+1)^s.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    if (n == 0) throw std::invalid_argument("Zipf: empty support");
    double acc = 0;
    for (std::size_t r = 0; r < n; ++r) {
      acc += std::pow(static_cast<double>(r + 1), -s);
      cdf_[r] = acc;
    }
    for (auto& c : cdf_) c /= acc;
  }
  std::size_t operator()(Rng& rng) const {
    const double u = rng.uniform();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Arrival offsets (ns from the phase start) of a Poisson process at
/// `rate_per_s` conditioned on exactly `n` arrivals in [0, n / rate): n
/// uniform times, sorted. The gaps are exponential as in any Poisson
/// stream, but every seed offers the same load over the same window, so
/// the window's length does not vary from run to run. Drawn from `seed`
/// alone: the schedule never depends on how fast the system ran.
inline std::vector<std::int64_t> poisson_schedule(std::uint64_t seed,
                                                  double rate_per_s,
                                                  std::size_t n) {
  if (!(rate_per_s > 0)) throw std::invalid_argument("poisson: rate <= 0");
  Rng rng(seed);
  const double window_ns = static_cast<double>(n) / rate_per_s * 1e9;
  std::vector<std::int64_t> at(n);
  for (auto& t : at) t = static_cast<std::int64_t>(rng.uniform() * window_ns);
  std::sort(at.begin(), at.end());
  return at;
}

/// A tail percentile must leave at least this many samples beyond it.
inline constexpr std::size_t kTailSamplesBeyond = 10;

/// 1-based nearest rank of percentile p (0 < p <= 100) among n samples.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const auto r = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return std::clamp<std::size_t>(r, 1, n);
}

/// Nearest-rank percentile of `v` (sorted in place). The median needs one
/// sample; a percentile above it needs kTailSamplesBeyond samples beyond
/// its rank, otherwise there is no answer.
inline std::optional<double> percentile(std::vector<double>& v, double p) {
  if (v.empty()) return std::nullopt;
  const std::size_t rank = nearest_rank(v.size(), p);
  if (p > 50.0 && v.size() - rank < kTailSamplesBeyond) return std::nullopt;
  std::sort(v.begin(), v.end());
  return v[rank - 1];
}

/// Open-loop bookkeeping for one request: when it was due, when the
/// generator actually started submitting it, and when it settled.
struct Arrival {
  std::int64_t due_ns = 0;
  std::int64_t start_ns = 0;
  std::int64_t done_ns = 0;
  /// How late the generator ran; an early start is not negative lateness.
  std::int64_t lateness_ns() const { return std::max<std::int64_t>(0, start_ns - due_ns); }
  /// Latency is charged from the due time, so a generator stall counts
  /// against every request queued behind it.
  std::int64_t latency_ns() const { return done_ns - due_ns; }
};

/// One traced interval. `parent` is the index of the causing span in the
/// same store (-1 for a root); spans of one request share `req`.
struct Span {
  std::uint32_t name = 0;
  std::int64_t parent = -1;
  std::uint64_t req = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t dur() const { return end_ns - start_ns; }
};

/// Length of `parent`'s interval not covered by any child interval;
/// children may overlap each other and stick out of the parent.
inline std::int64_t self_time(
    const Span& parent, std::vector<std::pair<std::int64_t, std::int64_t>> kids) {
  for (auto& k : kids) {
    k.first = std::max(k.first, parent.start_ns);
    k.second = std::min(k.second, parent.end_ns);
  }
  std::sort(kids.begin(), kids.end());
  std::int64_t covered = 0, lo = 0, hi = -1;
  bool open = false;
  for (const auto& [s, e] : kids) {
    if (e <= s) continue;
    if (open && s <= hi) {
      hi = std::max(hi, e);
      continue;
    }
    if (open) covered += hi - lo;
    lo = s;
    hi = e;
    open = true;
  }
  if (open) covered += hi - lo;
  return parent.dur() - covered;
}

/// Fixed-capacity, lock-free append store. Slots are claimed with one
/// atomic increment so the read generator and the writer can record at
/// once; nothing is written out until the run ends. A disabled store
/// records nothing and costs one branch per call site.
class SpanStore {
 public:
  SpanStore() = default;
  void enable(std::size_t capacity) {
    spans_.assign(capacity, Span{});
    next_.store(0);
    enabled_ = true;
  }
  bool enabled() const { return enabled_; }

  /// Claim a slot now (e.g. a request root whose end is not yet known).
  std::int64_t claim() {
    if (!enabled_) return -1;
    const auto i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= spans_.size()) {
      overflow_.store(true, std::memory_order_relaxed);
      return -1;
    }
    return static_cast<std::int64_t>(i);
  }
  void set(std::int64_t slot, const Span& s) {
    if (slot >= 0) spans_[static_cast<std::size_t>(slot)] = s;
  }
  std::int64_t add(const Span& s) {
    const auto slot = claim();
    set(slot, s);
    return slot;
  }

  bool overflowed() const { return overflow_.load(); }
  std::size_t size() const {
    return std::min(next_.load(), spans_.size());
  }
  const Span& operator[](std::size_t i) const { return spans_[i]; }

  /// Self time of every span, indexed like the store.
  std::vector<std::int64_t> self_times() const {
    const std::size_t n = size();
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto p = spans_[i].parent;
      if (p >= 0 && static_cast<std::size_t>(p) < n) {
        kids[static_cast<std::size_t>(p)].emplace_back(spans_[i].start_ns,
                                                       spans_[i].end_ns);
      }
    }
    std::vector<std::int64_t> out(n);
    for (std::size_t i = 0; i < n; ++i) {
      out[i] = self_time(spans_[i], std::move(kids[i]));
    }
    return out;
  }

  /// One line per span: id name parent req start_ns end_ns self_ns.
  void write(const std::string& path,
             const std::vector<std::string>& names) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw std::runtime_error("cannot write " + path);
    const auto self = self_times();
    std::fprintf(f, "# id name parent req start_ns end_ns self_ns\n");
    for (std::size_t i = 0; i < size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu %s %lld %llu %lld %lld %lld\n", i,
                   s.name < names.size() ? names[s.name].c_str() : "?",
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.req),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
    std::fclose(f);
  }

 private:
  std::vector<Span> spans_;
  std::atomic<std::size_t> next_{0};
  std::atomic<bool> overflow_{false};
  bool enabled_ = false;
};

}  // namespace perfbench
