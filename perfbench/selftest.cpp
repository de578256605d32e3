// Self-tests of the harness arithmetic in harness.hpp: nearest-rank
// percentiles and the ten-samples-beyond rule, self time under
// overlapping children, reproducibility of the seeded Poisson schedule,
// and generator-lateness accounting. Exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "harness.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

void percentiles() {
  auto v = iota(100);
  check(percentile(v, 50) == 50.0, "p50 of 1..100 is 50");
  check(!percentile(v, 99), "p99 of 100 samples has only one sample beyond it");
  check(percentile(v, 90) == 90.0, "p90 of 1..100 is 90 (ten beyond)");
  auto w = iota(1000);
  check(percentile(w, 99) == 990.0, "p99 of 1..1000 is 990");
  auto x = iota(999);
  check(!percentile(x, 99), "p99 needs 1000 samples");
  auto y = iota(200);
  check(percentile(y, 95) == 190.0, "p95 of 1..200 is 190 (ten beyond)");
  auto z = iota(199);
  check(!percentile(z, 95), "p95 needs 200 samples");
  auto one = std::vector<double>{7};
  check(percentile(one, 50) == 7.0, "median of one sample");
  auto none = std::vector<double>{};
  check(!percentile(none, 50), "no samples, no median");
  check(nearest_rank(10, 50) == 5 && nearest_rank(11, 50) == 6, "nearest rank rounds up");
}

void self_times() {
  const Span parent{0, -1, 0, 100, 200};
  check(self_time(parent, {}) == 100, "childless span is all self time");
  check(self_time(parent, {{110, 130}, {150, 160}}) == 70, "disjoint children subtract");
  check(self_time(parent, {{110, 150}, {140, 170}}) == 40, "overlapping children count once");
  check(self_time(parent, {{120, 130}, {110, 190}}) == 20, "nested children count once");
  check(self_time(parent, {{50, 120}, {180, 260}}) == 60, "children are clipped to the parent");
  check(self_time(parent, {{0, 300}}) == 0, "a covering child leaves no self time");

  SpanStore st;
  st.enable(4);
  const auto root = st.claim();
  st.add({1, root, 7, 110, 150});
  st.add({2, root, 7, 140, 170});
  st.set(root, {0, -1, 7, 100, 200});
  const auto self = st.self_times();
  check(self[0] == 40 && self[1] == 40 && self[2] == 30, "store computes self time per span");
}

void schedule() {
  const auto a = poisson_schedule(42, 2000, 20000);
  const auto b = poisson_schedule(42, 2000, 20000);
  const auto c = poisson_schedule(43, 2000, 20000);
  check(a == b, "same seed, same schedule");
  check(a != c, "another seed, another schedule");
  bool increasing = true;
  for (std::size_t i = 1; i < a.size(); ++i) increasing &= a[i] >= a[i - 1];
  check(increasing, "arrivals are ordered");
  const double mean_gap_us = static_cast<double>(a.back()) / 20000.0 / 1e3;
  check(std::fabs(mean_gap_us - 500.0) < 1.0, "mean gap is 1/rate");
  // Poisson gaps are exponential: about 1 - 1/e of them are below the mean.
  std::size_t short_gaps = 0;
  for (std::size_t i = 1; i < a.size(); ++i) short_gaps += a[i] - a[i - 1] < 500'000;
  const double share = static_cast<double>(short_gaps) / static_cast<double>(a.size() - 1);
  check(std::fabs(share - (1 - std::exp(-1.0))) < 0.02, "gaps are exponential");
}

void lateness() {
  // Due every 10 µs; the generator stalls 25 µs at the second arrival and
  // catches up by the fourth. Lateness is start - due, never negative, and
  // latency is charged from the due time.
  const std::int64_t us = 1000;
  const Arrival a[] = {{0, 0, 5 * us},
                       {10 * us, 35 * us, 40 * us},
                       {20 * us, 41 * us, 45 * us},
                       {30 * us, 29 * us, 33 * us}};
  check(a[0].lateness_ns() == 0, "on-time start has no lateness");
  check(a[1].lateness_ns() == 25 * us, "stall is lateness");
  check(a[2].lateness_ns() == 21 * us, "requests behind a stall are late too");
  check(a[3].lateness_ns() == 0, "an early start is not negative lateness");
  check(a[1].latency_ns() == 30 * us && a[2].latency_ns() == 25 * us,
        "latency includes the generator's lateness");
  std::vector<double> lag;
  for (int i = 0; i < 1000; ++i) lag.push_back(i < 985 ? 0.0 : 50.0);
  check(percentile(lag, 99) == 50.0, "p99 lateness sees the worst 1%");
}

void zipf() {
  Zipf z(1000, 1.1);
  Rng r1(9), r2(9);
  std::size_t low = 0;
  bool same = true;
  for (int i = 0; i < 10000; ++i) {
    const auto x = z(r1);
    same &= x == z(r2);
    low += x < 10;
  }
  check(same, "Zipf draws repeat for a seed");
  check(low > 4000, "Zipf(1.1) puts most mass on the top ranks");
}

}  // namespace

int main() {
  percentiles();
  self_times();
  schedule();
  lateness();
  zipf();
  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}
