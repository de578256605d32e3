// Tests for life-of-a-query tracing (serve/trace.hpp): ring wraparound,
// sampling cadence, span well-formedness (stage coverage, sorted
// timestamps, per-lane proper nesting) through the 1-shard and the
// sharded router, and — the contract that matters most — a determinism
// sweep proving results are bit-identical with tracing off, on, and
// sampled, at 1/2/8 threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "helpers.hpp"
#include "semiring/all.hpp"
#include "serve/router.hpp"
#include "serve/trace.hpp"
#include "sparse/io.hpp"
#include "util/rng.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::sparse;
using hyperspace::testing::ThreadGuard;
namespace tr = hyperspace::serve::trace;
using S = semiring::PlusTimes<double>;

/// Every test leaves the process-wide tracer the way it found it: off.
struct TracerGuard {
  ~TracerGuard() { tr::Tracer::instance().configure({}); }
};

template <semiring::Semiring Sr, typename Gen>
Matrix<typename Sr::value_type> random_matrix(Index nrows, Index ncols,
                                              int nnz, std::uint64_t seed,
                                              Gen&& entry) {
  util::Xoshiro256 rng(seed);
  std::vector<Triple<typename Sr::value_type>> t;
  for (int i = 0; i < nnz; ++i) {
    t.push_back({static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(nrows))),
                 static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(ncols))),
                 entry(rng)});
  }
  return Matrix<typename Sr::value_type>::template from_triples<Sr>(
      nrows, ncols, std::move(t));
}

double dbl_entry(util::Xoshiro256& r) { return r.uniform(-1.0, 1.0); }

/// A small mixed workload: unmasked, masked, complement-masked, empty.
template <semiring::Semiring Sr>
std::vector<serve::Query<Sr>> workload(Index n, std::uint64_t seed) {
  using Q = serve::Query<Sr>;
  std::vector<Q> qs;
  qs.push_back(Q::analytic(random_matrix<Sr>(5, n, 30, seed + 1, dbl_entry)));
  qs.push_back(Q::masked(random_matrix<Sr>(4, n, 24, seed + 2, dbl_entry),
                         random_matrix<Sr>(4, n, 40, seed + 3, dbl_entry)));
  qs.push_back(Q::masked(random_matrix<Sr>(3, n, 18, seed + 4, dbl_entry),
                         random_matrix<Sr>(3, n, 16, seed + 5, dbl_entry),
                         {.complement = true}));
  qs.push_back(Q::analytic(random_matrix<Sr>(2, n, 0, seed + 6, dbl_entry)));
  return qs;
}

/// Per-lane proper-nesting check, mirroring tools/check_trace_json.py:
/// sweep each lane's spans in (ts asc, dur desc) order with a stack; a
/// span must start after every already-closed span on its lane ends.
void expect_properly_nested(const std::vector<tr::Span>& spans) {
  std::map<std::uint64_t, std::vector<std::uint64_t>> stacks;  // lane → ends
  for (const auto& s : spans) {
    auto& st = stacks[s.lane];
    while (!st.empty() && st.back() <= s.ts_ns) st.pop_back();
    for (const auto end : st) {
      EXPECT_LE(s.ts_ns + s.dur_ns, end)
          << "span " << tr::stage_name(s.stage) << " on lane " << s.lane
          << " overlaps an enclosing span without nesting";
    }
    st.push_back(s.ts_ns + s.dur_ns);
  }
}

std::set<tr::Stage> stages_of(const std::vector<tr::Span>& spans) {
  std::set<tr::Stage> out;
  for (const auto& s : spans) out.insert(s.stage);
  return out;
}

// ---- tracer mechanics ----------------------------------------------------

TEST(Trace, RingWraparoundKeepsNewestSpans) {
  TracerGuard guard;
  auto& t = tr::Tracer::instance();
  t.configure({.enabled = true, .sample_every = 1, .ring_capacity = 8});
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.record(tr::Stage::kSubmit, i + 1, 0, /*ts_ns=*/i * 10, /*dur_ns=*/5);
  }
  EXPECT_EQ(t.recorded(), 20u);  // total appended survives the wrap
  const auto spans = t.snapshot();
  ASSERT_EQ(spans.size(), 8u);  // ring keeps only the newest capacity
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].ts_ns, (12 + i) * 10);  // the 8 newest, time-sorted
  }
}

TEST(Trace, SamplingTracesOneInN) {
  TracerGuard guard;
  auto& t = tr::Tracer::instance();
  t.configure({.enabled = true, .sample_every = 3});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 9; ++i) ids.push_back(t.sample());
  int traced = 0;
  std::set<std::uint64_t> distinct;
  for (const auto id : ids) {
    if (id != 0) {
      ++traced;
      distinct.insert(id);
    }
  }
  EXPECT_EQ(traced, 3);  // exactly every 3rd draw
  EXPECT_EQ(distinct.size(), 3u);
  EXPECT_NE(ids[0], 0u);  // the first draw is always traced
}

TEST(Trace, DisabledTracerRecordsNothing) {
  TracerGuard guard;
  auto& t = tr::Tracer::instance();
  t.configure({.enabled = false});
  EXPECT_EQ(t.sample(), 0u);
  t.record(tr::Stage::kSubmit, 1, 0, 0, 1);
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

TEST(Trace, ReconfigureDropsOldSpans) {
  TracerGuard guard;
  auto& t = tr::Tracer::instance();
  t.configure({.enabled = true});
  t.record(tr::Stage::kSubmit, 1, 0, 0, 1);
  EXPECT_EQ(t.recorded(), 1u);
  t.configure({.enabled = true});
  EXPECT_EQ(t.recorded(), 0u);
  EXPECT_TRUE(t.snapshot().empty());
}

// ---- 1-shard engine spans ------------------------------------------------

TEST(Trace, ExecutorSpansAreWellFormed) {
  TracerGuard guard;
  tr::Tracer::instance().configure({.enabled = true, .sample_every = 1});
  const Index n = 48;
  const auto base = random_matrix<S>(n, n, 5 * n, 11, dbl_entry);
  serve::Router<S> ex(base);
  const auto queries = workload<S>(n, 21);
  std::vector<std::size_t> tickets;
  for (const auto& q : queries) tickets.push_back(ex.submit(q));
  for (const auto t : tickets) ex.wait(t);

  const auto spans = tr::Tracer::instance().snapshot();
  const auto stages = stages_of(spans);
  EXPECT_TRUE(stages.count(tr::Stage::kSubmit));
  EXPECT_TRUE(stages.count(tr::Stage::kTenantQueue));
  EXPECT_TRUE(stages.count(tr::Stage::kAdmission));
  EXPECT_TRUE(stages.count(tr::Stage::kFlush));
  EXPECT_TRUE(stages.count(tr::Stage::kKernel));
  EXPECT_TRUE(stages.count(tr::Stage::kWait));

  for (std::size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].ts_ns, spans[i - 1].ts_ns);  // snapshot is time-sorted
  }
  for (const auto& s : spans) {
    if (s.lane >= tr::kQueryLaneBase) {
      EXPECT_NE(s.trace, 0u);  // query lanes carry a real trace id
      EXPECT_EQ(s.lane, tr::query_lane(s.trace));
    }
  }
  expect_properly_nested(spans);

  // Every submitted query was traced (sample_every = 1): one tenant-queue
  // span per query, each on its own lane.
  std::set<std::uint64_t> queue_lanes;
  for (const auto& s : spans) {
    if (s.stage == tr::Stage::kTenantQueue) queue_lanes.insert(s.lane);
  }
  EXPECT_EQ(queue_lanes.size(), queries.size());
}

TEST(Trace, ExecutorSamplingTracesSubsetOfQueries) {
  TracerGuard guard;
  tr::Tracer::instance().configure({.enabled = true, .sample_every = 3});
  const Index n = 32;
  const auto base = random_matrix<S>(n, n, 4 * n, 31, dbl_entry);
  serve::Router<S> ex(base);
  std::vector<std::size_t> tickets;
  for (int i = 0; i < 9; ++i) {
    tickets.push_back(ex.submit(serve::Query<S>::analytic(
        random_matrix<S>(2, n, 10, 40 + i, dbl_entry))));
  }
  for (const auto t : tickets) ex.wait(t);

  std::set<std::uint64_t> traced;
  for (const auto& s : tr::Tracer::instance().snapshot()) {
    if (s.trace != 0) traced.insert(s.trace);
  }
  EXPECT_EQ(traced.size(), 3u);  // every 3rd of 9 submissions
}

// ---- router chain spans --------------------------------------------------

TEST(Trace, RouterChainSpansCoverScatterCarryGather) {
  TracerGuard guard;
  tr::Tracer::instance().configure({.enabled = true, .sample_every = 1});
  const Index n = 64;
  const auto base = random_matrix<S>(n, n, 8 * n, 51, dbl_entry);
  serve::Router<S> router(base, {.n_shards = 4});
  // A dense-ish lhs touches every shard: a 4-stage chain.
  const auto lhs = random_matrix<S>(3, n, 3 * n, 52, dbl_entry);
  const auto t = router.submit(serve::Query<S>::analytic(lhs));
  router.flush();
  (void)router.wait(t);

  const auto spans = tr::Tracer::instance().snapshot();
  const auto stages = stages_of(spans);
  EXPECT_TRUE(stages.count(tr::Stage::kScatter));
  EXPECT_TRUE(stages.count(tr::Stage::kChainCarry));
  EXPECT_TRUE(stages.count(tr::Stage::kGather));
  expect_properly_nested(spans);

  // The gather span brackets the whole chain on the query's lane: every
  // tenant-queue span of every stage nests inside it.
  const tr::Span* gather = nullptr;
  for (const auto& s : spans) {
    if (s.stage == tr::Stage::kGather) {
      EXPECT_EQ(gather, nullptr) << "one gather per chain";
      gather = &s;
    }
  }
  ASSERT_NE(gather, nullptr);
  EXPECT_EQ(gather->a0, 4u);  // touched all four shards
  std::size_t queue_spans = 0;
  std::size_t carries = 0;
  for (const auto& s : spans) {
    if (s.lane != gather->lane || &s == gather) continue;
    EXPECT_GE(s.ts_ns, gather->ts_ns);
    EXPECT_LE(s.ts_ns + s.dur_ns, gather->ts_ns + gather->dur_ns);
    if (s.stage == tr::Stage::kTenantQueue) ++queue_spans;
    if (s.stage == tr::Stage::kChainCarry) ++carries;
  }
  EXPECT_EQ(queue_spans, 4u);  // one sub-query per shard stage
  EXPECT_EQ(carries, 3u);      // stages 1..3 each carried a partial
}

TEST(Trace, RouterSamplesOncePerLogicalQuery) {
  TracerGuard guard;
  tr::Tracer::instance().configure({.enabled = true, .sample_every = 1});
  const Index n = 48;
  const auto base = random_matrix<S>(n, n, 6 * n, 61, dbl_entry);
  serve::Router<S> router(base, {.n_shards = 3});
  const auto t = router.submit(serve::Query<S>::analytic(
      random_matrix<S>(2, n, 2 * n, 62, dbl_entry)));
  router.flush();
  (void)router.wait(t);
  // All spans of the chain share ONE trace id: the sub-queries inherit
  // the logical query's id and are never re-sampled.
  std::set<std::uint64_t> ids;
  for (const auto& s : tr::Tracer::instance().snapshot()) {
    if (s.trace != 0) ids.insert(s.trace);
  }
  EXPECT_EQ(ids.size(), 1u);
}

// ---- Chrome JSON dump ----------------------------------------------------

TEST(Trace, ChromeJsonDumpHasAnEventPerSpan) {
  TracerGuard guard;
  tr::Tracer::instance().configure({.enabled = true, .sample_every = 1});
  const Index n = 32;
  const auto base = random_matrix<S>(n, n, 4 * n, 71, dbl_entry);
  serve::Router<S> ex(base);
  const auto t = ex.submit(serve::Query<S>::analytic(
      random_matrix<S>(2, n, 12, 72, dbl_entry)));
  ex.wait(t);
  const auto spans = tr::Tracer::instance().snapshot();
  ASSERT_FALSE(spans.empty());
  std::ostringstream os;
  tr::Tracer::instance().write_chrome_json(os);
  const std::string json = os.str();
  std::size_t events = 0;
  for (std::size_t p = json.find("\"ph\":\"X\""); p != std::string::npos;
       p = json.find("\"ph\":\"X\"", p + 1)) {
    ++events;
  }
  EXPECT_EQ(events, spans.size());
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"engine\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"query\""), std::string::npos);
}

// ---- determinism: tracing never changes an answer ------------------------

TEST(Trace, ResultsBitIdenticalAcrossTracingModesAndThreadCounts) {
  TracerGuard guard;
  const Index n = 64;
  const auto base = random_matrix<S>(n, n, 7 * n, 81, dbl_entry);
  const auto queries = workload<S>(n, 82);

  // Reference: telemetry fully off, single-threaded.
  tr::Tracer::instance().configure({});
  util::metrics::set_enabled(false);
  std::vector<Matrix<double>> ref_one;
  std::vector<Matrix<double>> ref_routed;
  {
    ThreadGuard tg(1);
    serve::Router<S> ex(base);
    std::vector<std::size_t> tk;
    for (const auto& q : queries) tk.push_back(ex.submit(q));
    for (const auto t : tk) ref_one.push_back(ex.wait(t));
    serve::Router<S> router(base, {.n_shards = 4});
    tk.clear();
    for (const auto& q : queries) tk.push_back(router.submit(q));
    router.flush();
    for (const auto t : tk) ref_routed.push_back(router.wait(t));
  }

  struct Mode {
    const char* name;
    bool metrics_on;
    bool trace_on;
    std::uint64_t sample_every;
  };
  const Mode modes[] = {{"off", false, false, 1},
                        {"full", true, true, 1},
                        {"sampled", true, true, 3}};
  for (const auto& mode : modes) {
    for (const int nt : {1, 2, 8}) {
      ThreadGuard tg(nt);
      util::metrics::set_enabled(mode.metrics_on);
      tr::Tracer::instance().configure(
          {.enabled = mode.trace_on, .sample_every = mode.sample_every});
      serve::Router<S> ex(base);
      std::vector<std::size_t> tk;
      for (const auto& q : queries) tk.push_back(ex.submit(q));
      for (std::size_t i = 0; i < tk.size(); ++i) {
        EXPECT_EQ(ex.wait(tk[i]), ref_one[i])
            << "mode=" << mode.name << " threads=" << nt << " query=" << i;
      }
      serve::Router<S> router(base, {.n_shards = 4});
      tk.clear();
      for (const auto& q : queries) tk.push_back(router.submit(q));
      router.flush();
      for (std::size_t i = 0; i < tk.size(); ++i) {
        EXPECT_EQ(router.wait(tk[i]), ref_routed[i])
            << "mode=" << mode.name << " threads=" << nt << " query=" << i;
      }
    }
  }
  util::metrics::set_enabled(true);  // restore the process default
}

}  // namespace
