// live-fanout: reads beside writes. 8-row fan-out reads and 32-update
// write batches arrive as two open-loop Poisson streams at a 2-shard async
// serve::Router over a scale-18 R-MAT base with the background compactor
// on; a closed-loop phase of the same mix then measures capacity. The
// engine is driven through the serve::Service surface only; lower layers
// are touched only by the traced run's replay phase.

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "serve/batch.hpp"
#include "serve/cache.hpp"
#include "serve/router.hpp"
#include "sparse/delta.hpp"

namespace perfbench {
namespace {

using hyperspace::serve::Query;
using hyperspace::serve::Router;
using hyperspace::sparse::MxmStrategy;
using Updates = hyperspace::sparse::UpdateBatch<double>;

/// The base, drawn from the seed. The harness rebuilds it wherever it
/// needs it instead of keeping a copy beside the engine's.
Matrix base_matrix(const Options& o) {
  const int scale = static_cast<int>(o.num("scale"));
  const Index n = Index{1} << scale;
  return Matrix::from_triples<S>(
      n, n, rmat(scale, o.num("edge_factor"), stream_seed(o.seed, 1)));
}

/// Rows holding between `lo` and `hi` entries. Keys are drawn from this
/// band so that every query costs about the same: under a Zipf draw a few
/// pool entries carry most of the traffic, and if those could be R-MAT hub
/// rows, which entries a seed made popular would decide the figures.
std::vector<Index> band_rows(const Matrix& m, const Options& o) {
  const auto lo = static_cast<Index>(o.num("key_degree_min"));
  const auto hi = static_cast<Index>(o.num("key_degree_max"));
  const auto v = m.view();
  std::vector<Index> rows;
  for (std::size_t i = 0; i < v.row_ids.size(); ++i) {
    const Index d = v.row_ptr[i + 1] - v.row_ptr[i];
    if (d >= lo && d <= hi) rows.push_back(v.row_ids[i]);
  }
  if (rows.size() < 64) throw std::runtime_error("too few rows in the key band");
  return rows;
}

Matrix row_vector(Index n, std::vector<Index> cols) {
  std::sort(cols.begin(), cols.end());
  cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
  Triples t;
  for (const auto c : cols) t.push_back({0, c, 1.0});
  return Matrix::from_unique_triples(1, n, std::move(t), 0.0);
}

/// Span names.
struct Names {
  std::uint32_t request, submit, poll, mutate, replay_probe, replay_launch,
      replay_scatter, replay_publish;
  explicit Names(Trace& tr)
      : request(tr.name("request")),
        submit(tr.name("submit")),
        poll(tr.name("poll")),
        mutate(tr.name("mutate")),
        replay_probe(tr.name("replay.cache_probe")),
        replay_launch(tr.name("replay.run_batch")),
        replay_scatter(tr.name("replay.scatter")),
        replay_publish(tr.name("replay.delta_mutate")) {}
};

/// The open-loop read stream. One generator thread, alone on its CPU,
/// submits each query at its scheduled time whatever the progress of the
/// earlier ones, and until the next arrival polls every outstanding ticket
/// with Service::poll, which also advances straddling chains to their next
/// stage. No other harness thread touches a read, so no harness-side
/// thread wake-up lies on its path. Latency runs from the scheduled arrival
/// to the poll that returned the answer.
struct OpenReads {
  /// Gap between two passes over the outstanding tickets, so that the
  /// generator does not contend for the engine's locks without pause.
  static constexpr std::int64_t kPollGapNs = 5'000;

  std::vector<Query<S>> queries;  ///< consumed by submit
  std::vector<Arrival> arrivals;
  std::vector<char> ok;
  std::size_t pending_max = 0;

  std::size_t size() const { return queries.size(); }

  void run(Router<S>& router, const std::vector<std::int64_t>& offsets,
           std::int64_t start, Trace& tr, const Names& nm, Report& r) {
    const std::size_t n = size();
    arrivals.assign(n, {});
    ok.assign(n, 0);
    std::vector<std::size_t> tickets(n, 0);
    std::vector<std::int64_t> roots(n, -1);
    std::vector<std::size_t> open;  // submitted, not yet answered
    const auto poll_open = [&] {
      for (std::size_t k = 0; k < open.size();) {
        const std::size_t i = open[k];
        const auto t0 = now_ns();
        bool done = true;
        try {
          done = router.poll(tickets[i]) != nullptr;
        } catch (const std::exception& e) {
          ok[i] = 0;
          r.fail(std::string("poll: ") + e.what());
        }
        if (!done) {
          ++k;
          continue;
        }
        arrivals[i].done_ns = now_ns();
        if (roots[i] >= 0) {
          tr.store().add(Span{nm.poll, roots[i], i, t0, arrivals[i].done_ns});
          tr.store().set(roots[i], Span{nm.request, -1, i, arrivals[i].due_ns,
                                        arrivals[i].done_ns});
        }
        open[k] = open.back();
        open.pop_back();
      }
    };
    generator_cpu(true);
    for (std::size_t i = 0; i < n; ++i) {
      arrivals[i].due_ns = start + offsets[i];
      while (now_ns() < arrivals[i].due_ns) {
        if (open.empty()) continue;
        poll_open();
        wait_until(std::min(arrivals[i].due_ns, now_ns() + kPollGapNs), true);
      }
      arrivals[i].start_ns = now_ns();
      roots[i] = tr.store().claim();
      try {
        tickets[i] = tr.span(nm.submit, roots[i], i, [&] {
          return router.submit(std::move(queries[i]));
        });
      } catch (const std::exception& e) {
        r.fail(std::string("submit: ") + e.what());
        continue;
      }
      ok[i] = 1;
      open.push_back(i);
      if (tr.on()) pending_max = std::max(pending_max, router.pending());
      poll_open();  // a cache hit settles inside submit
    }
    while (!open.empty()) {
      poll_open();
      wait_until(now_ns() + kPollGapNs, true);
    }
    generator_cpu(false);
  }

  std::vector<std::int64_t> latencies() const {
    std::vector<std::int64_t> v;
    for (std::size_t i = 0; i < size(); ++i) {
      if (ok[i]) v.push_back(arrivals[i].latency_ns());
    }
    return v;
  }
  std::vector<std::int64_t> lateness() const {
    std::vector<std::int64_t> v;
    for (const auto& a : arrivals) v.push_back(a.lateness_ns());
    return v;
  }

  /// The median over `slices` equal slices of the schedule of each slice's
  /// median latency (µs). A host stall covering a minority of the run moves
  /// a minority of the slice medians, not the figure.
  double sliced_p50_us(std::size_t slices) const {
    if (size() == 0) return 0;
    const std::int64_t t0 = arrivals.front().due_ns;
    const std::int64_t span = arrivals.back().due_ns - t0 + 1;
    std::vector<std::vector<std::int64_t>> by(slices);
    for (std::size_t i = 0; i < size(); ++i) {
      if (!ok[i]) continue;
      const auto k = static_cast<std::size_t>(
          (arrivals[i].due_ns - t0) * static_cast<std::int64_t>(slices) / span);
      by[k].push_back(arrivals[i].latency_ns());
    }
    std::vector<double> medians;
    for (const auto& v : by) {
      if (const auto m = summarize_ns(v).p50_us) medians.push_back(*m);
    }
    return percentile(medians, 50).value_or(0);
  }
};

void add_tail(std::vector<Metric>& to, const std::string& name,
              const std::vector<std::int64_t>& ns) {
  const auto s = summarize_ns(ns);
  if (s.p99_us) to.push_back({name, *s.p99_us, "us", s.n});
}

/// Layer metrics read from the engine's own counters.
void engine_counters(Report& r, const Router<S>& router) {
  const auto rs = router.router_stats();
  const auto cs = router.cache_stats();
  const auto ss = router.stats();
  const auto launched = rs.queries - rs.cache_hits;
  r.layer.push_back({"router.stages_per_query",
                     launched ? double(rs.stage_submits) / double(launched) : 0,
                     "ratio", launched});
  const auto probes = cs.hits + cs.misses;
  r.layer.push_back({"cache.hit_ratio", probes ? double(cs.hits) / double(probes) : 0,
                     "ratio", probes});
  r.layer.push_back({"cache.evictions", double(cs.evictions), "count", 1});
  r.layer.push_back({"cache.stale_drops", double(cs.stale_drops), "count", 1});
  r.layer.push_back({"executor.queries_per_launch",
                     ss.kernel_launches ? double(ss.queries) / double(ss.kernel_launches) : 0,
                     "ratio", ss.kernel_launches});
  r.layer.push_back({"kernel.flops_kept", double(ss.flops_kept), "count", 1});
  r.layer.push_back({"kernel.flops_skipped", double(ss.flops_skipped), "count", 1});
}

}  // namespace

void run_live_fanout(const Options& o, Report& r, Trace& tr) {
  pin_kernel_workers(static_cast<int>(o.num("kernel_workers")));
  generator_cpu(false);
  const Index n = Index{1} << static_cast<int>(o.num("scale"));
  const std::size_t pool_n = o.count("pool");
  const std::size_t fanout = o.count("fanout");
  const std::size_t n_reads = static_cast<std::size_t>(o.num("read_rate_per_s") * o.seconds);
  const std::size_t n_writes = static_cast<std::size_t>(o.num("write_rate_per_s") * o.seconds);
  const std::size_t n_warm_r = o.count("warmup_reads");
  const std::size_t n_warm_w = o.count("warmup_writes");
  const std::size_t blocks = o.count("capacity_blocks");
  const std::size_t block_reads = o.count("block_reads");
  const std::size_t block_writes = o.count("block_writes");
  const std::size_t per_batch = o.count("batch_updates");
  const std::size_t erase_every = o.count("erase_every");

  // The inputs are drawn against a harness-side build of the base, which
  // is dropped before the engine is built: peak_rss_mb is reset after this
  // and so covers the program's ingest and run, not the harness's copies.
  //
  // Fan-out pool: expand `fanout` rows at once (the union of their
  // adjacency); the masked variant keeps only columns adjacent to the
  // first row, a triangle-closing probe.
  //
  // The write script: `batch_updates`-update batches, every
  // `erase_every`-th update erasing an existing entry, the rest assigning
  // fresh values at random columns. Written rows come from the key band
  // too: a delta row replaces its whole base row, so a write to a hub
  // would make publish cost depend on the seed.
  std::vector<Query<S>> pool, masked_pool;
  std::vector<Updates> script(n_warm_w + n_writes + blocks * block_writes);
  {
    const Matrix base = base_matrix(o);
    const auto rows = band_rows(base, o);
    const auto view = base.view();
    const auto cols_of = [&](Index row) {
      return view.row_cols(static_cast<std::size_t>(
          std::lower_bound(view.row_ids.begin(), view.row_ids.end(), row) -
          view.row_ids.begin()));
    };
    Rng prng(stream_seed(o.seed, 2));
    for (std::size_t i = 0; i < pool_n; ++i) {
      std::vector<Index> sel;
      while (sel.size() < fanout) {
        const Index k = rows[prng.below(rows.size())];
        if (std::find(sel.begin(), sel.end(), k) == sel.end()) sel.push_back(k);
      }
      const auto cols = cols_of(sel.front());
      pool.push_back(Query<S>::analytic(row_vector(n, sel)));
      masked_pool.push_back(Query<S>::masked(
          row_vector(n, sel), row_vector(n, {cols.begin(), cols.end()})));
    }
    Rng wrng(stream_seed(o.seed, 5));
    for (auto& b : script) {
      for (std::size_t j = 0; j < per_batch; ++j) {
        const Index row = rows[wrng.below(rows.size())];
        if (j % erase_every == erase_every - 1) {
          const auto cols = cols_of(row);
          b.push_back(Updates::value_type::erased(row, cols[wrng.below(cols.size())]));
        } else {
          const auto col = static_cast<Index>(wrng.below(static_cast<std::uint64_t>(n)));
          b.push_back(Updates::value_type::assign(row, col, 1.0 + wrng.uniform()));
        }
      }
    }
  }

  Zipf zipf(pool_n, o.num("zipf_s"));
  Rng zrng(stream_seed(o.seed, 3));
  const std::size_t mask_every = o.count("mask_every");
  std::vector<std::size_t> draws(n_warm_r + n_reads + blocks * block_reads);
  for (auto& d : draws) d = zipf(zrng);
  const auto read_query = [&](std::size_t k) {
    return k % mask_every == mask_every - 1 ? masked_pool[draws[k]] : pool[draws[k]];
  };
  const auto r_off = poisson_schedule(stream_seed(o.seed, 4), o.num("read_rate_per_s"), n_reads);
  const auto w_off = poisson_schedule(stream_seed(o.seed, 6), o.num("write_rate_per_s"), n_writes);

  reset_peak_rss();
  Router<S>::Config cfg;
  cfg.n_shards = static_cast<int>(o.num("shards"));
  cfg.executor.async = true;
  cfg.executor.cache_bytes = static_cast<std::size_t>(o.num("cache_bytes"));
  cfg.executor.delta.background = true;
  cfg.executor.delta.compact_threshold = o.count("compact_threshold");
  std::unique_ptr<Router<S>> engine;
  const double setup_s = median_setup(o.count("setup_reps"), [&](bool) {
    engine.reset();
    auto triples = rmat(static_cast<int>(o.num("scale")), o.num("edge_factor"),
                        stream_seed(o.seed, 1));
    const auto t0 = now_ns();
    engine = std::make_unique<Router<S>>(
        Matrix::from_triples<S>(n, n, std::move(triples)), cfg);
    return seconds_since(t0);
  });
  Router<S>& router = *engine;

  Names nm(tr);
  if (o.trace) {
    tr.store().enable(5 * n_reads + 3 * n_writes + script.size() +
                      o.count("replay_launches") + 64);
  }

  // Warm-up: reads and writes interleaved, closed loop, untimed.
  for (std::size_t k = 0; k < std::max(n_warm_r, n_warm_w); ++k) {
    if (k < n_warm_r) router.wait(router.submit(read_query(k)));
    if (k < n_warm_w) router.mutate(script[k]);
  }

  OpenReads reads;
  reads.queries.reserve(n_reads);
  for (std::size_t k = n_warm_r; k < n_warm_r + n_reads; ++k) {
    reads.queries.push_back(read_query(k));
  }

  // The writer: its own Poisson stream, mutate() timed from the due time.
  std::vector<Arrival> w_arr(n_writes);
  std::vector<char> w_ok(n_writes, 0);
  std::size_t entries_max = 0;
  const auto start = now_ns() + 1'000'000;
  std::thread writer([&] {
    for (std::size_t k = 0; k < n_writes; ++k) {
      w_arr[k].due_ns = start + w_off[k];
      wait_until(w_arr[k].due_ns, false);
      w_arr[k].start_ns = now_ns();
      const auto root = tr.store().claim();
      try {
        tr.span(nm.mutate, root, k, [&] { return router.mutate(script[n_warm_w + k]); });
        w_ok[k] = 1;
      } catch (...) {
      }
      w_arr[k].done_ns = now_ns();
      tr.store().set(root, Span{nm.request, -1, k, w_arr[k].due_ns, w_arr[k].done_ns});
      if (tr.on()) {
        std::size_t d = 0;
        for (std::size_t s = 0; s < router.n_shards(); ++s) {
          d += router.shard_executor(s).delta_base().delta_entries();
        }
        entries_max = std::max(entries_max, d);
      }
    }
  });
  reads.run(router, r_off, start, tr, nm, r);
  writer.join();

  std::vector<std::int64_t> w_lat;
  for (std::size_t k = 0; k < n_writes; ++k) {
    if (w_ok[k]) {
      w_lat.push_back(w_arr[k].latency_ns());
    } else {
      r.fail("mutate threw");
    }
  }

  // Capacity: the same mix in a closed loop on the generator's CPU, in
  // equal blocks of `block_writes` write batches and then `block_reads`
  // reads, all outstanding until one Service::flush drains them. The
  // figure is the median block rate, so a stall of the (virtual) CPU costs
  // one block, not the figure.
  std::vector<double> rates;
  generator_cpu(true);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t w0 = n_warm_w + n_writes + b * block_writes;
    const std::size_t r0 = n_warm_r + n_reads + b * block_reads;
    std::vector<Query<S>> qs;
    for (std::size_t k = 0; k < block_reads; ++k) qs.push_back(read_query(r0 + k));
    std::vector<std::size_t> tk;
    const auto c0 = now_ns();
    try {
      for (std::size_t k = 0; k < block_writes; ++k) router.mutate(script[w0 + k]);
      for (auto& q : qs) tk.push_back(router.submit(std::move(q)));
      router.flush();
      for (const auto t : tk) {
        if (router.poll(t) == nullptr) r.fail("read unsettled after flush");
      }
    } catch (const std::exception& e) {
      r.fail(std::string("capacity block: ") + e.what());
    }
    rates.push_back(double(block_reads + block_writes) / seconds_since(c0));
  }
  generator_cpu(false);
  r.peak_rss_mb = read_peak_rss_mb();

  // Verification: the harness's own model after the whole write script,
  // rebuilt from triples, against a fixed query set served after a flush.
  const Matrix base = base_matrix(o);
  router.flush();
  {
    std::map<std::pair<Index, Index>, std::optional<double>> last_write;
    for (const auto& b : script) {
      for (const auto& u : b) {
        last_write[{u.row, u.col}] = u.erase ? std::nullopt : std::optional<double>(u.val);
      }
    }
    Triples model;
    for (const auto& t : base.to_triples()) {
      if (!last_write.count({t.row, t.col})) model.push_back(t);
    }
    for (const auto& [key, v] : last_write) {
      if (v) model.push_back({key.first, key.second, *v});
    }
    const Matrix rebuilt = Matrix::from_triples<S>(n, n, std::move(model));
    const std::size_t n_verify = std::min(o.count("verify_queries"), pool_n);
    std::vector<std::size_t> vt;
    for (std::size_t i = 0; i < n_verify; ++i) {
      vt.push_back(router.submit(i % 2 ? masked_pool[i] : pool[i]));
    }
    for (std::size_t i = 0; i < n_verify; ++i) {
      const auto ref = hyperspace::serve::run_single<S>(
          rebuilt, i % 2 ? masked_pool[i] : pool[i], MxmStrategy::kHash);
      if (!same_bytes(router.wait(vt[i]), ref)) {
        r.fail("verification query " + std::to_string(i) + " differs from the rebuilt model");
      }
    }
    if (router.epoch() != script.size()) {
      r.fail("epoch " + std::to_string(router.epoch()) + " != batches sent " +
             std::to_string(script.size()));
    }
    r.attempted = draws.size() + script.size() + n_verify;
  }

  r.e2e.push_back({"op_p50_us", reads.sliced_p50_us(o.count("slices")), "us",
                   reads.latencies().size()});
  r.e2e.push_back({"ops_per_s", *percentile(rates, 50), "1/s",
                   blocks * (block_reads + block_writes)});
  r.e2e.push_back({"setup_s", setup_s, "s", o.count("setup_reps")});
  add_tail(r.info, "query_p99_us", reads.latencies());
  const auto wl = summarize_ns(w_lat);
  if (wl.p50_us) r.info.push_back({"mutate_p50_us", *wl.p50_us, "us", wl.n});
  add_tail(r.info, "gen_lag_p99_us", reads.lateness());

  // Neither cache hits nor compactions are exact: which reads land between
  // two writes, and whether a write lands before or after a background
  // compaction completes, depend on timing.
  r.exact = {{"router.mutations", router.router_stats().mutations}};

  if (!tr.on()) return;
  engine_counters(r, router);
  add_tail(r.layer, "harness.gen_lag_p99_us", reads.lateness());
  r.layer.push_back({"executor.pending_max", double(reads.pending_max), "count", n_reads});
  std::uint64_t compactions = 0;
  for (std::size_t s = 0; s < router.n_shards(); ++s) {
    compactions += router.shard_executor(s).delta_base().compactions();
  }
  r.layer.push_back({"delta.compactions", double(compactions), "count", 1});
  r.layer.push_back({"delta.entries_max", double(entries_max), "count", n_writes});
  layer_p50(r, tr, nm.submit, "router.submit_us");
  layer_p50(r, tr, nm.poll, "router.poll_us");
  {
    std::vector<double> us;
    for (const auto d : tr.durations(nm.mutate)) us.push_back(double(d) / 1e3);
    if (const auto p = percentile(us, 95)) {
      r.layer.push_back({"delta.mutate_p95_us", *p, "us", us.size()});
    }
  }

  // Replay: the open loop's queries through ShardMap::scatter,
  // ResultCache::make_key + probe against a standalone cache holding their
  // answers at epoch 0 (the cost a hit pays inside submit), and a one-query
  // serve::run_batch; then DeltaBase::mutate on a standalone unsharded
  // base with the open loop's write script, warm-up included. Reads almost
  // never hit (every write invalidates), so the read stream is also the
  // miss stream.
  std::vector<Query<S>> stream;
  for (std::size_t k = n_warm_r; k < n_warm_r + n_reads; ++k) stream.push_back(read_query(k));
  for (std::size_t i = 0; i < stream.size(); ++i) {
    tr.span(nm.replay_scatter, -1, i,
            [&] { return router.map().scatter(stream[i].lhs).shards.size(); });
  }
  {
    hyperspace::serve::ResultCache<S> cache(
        {static_cast<std::size_t>(o.num("cache_bytes")), true});
    using Cache = decltype(cache);
    const auto strategy = static_cast<unsigned char>(MxmStrategy::kAuto);
    for (const auto& q : stream) {
      cache.install(Cache::make_key(0, 0, q, strategy),
                    hyperspace::serve::run_single<S>(base, q, MxmStrategy::kHash));
    }
    for (std::size_t i = 0; i < stream.size(); ++i) {
      tr.span(nm.replay_probe, -1, i, [&] {
        const auto key = Cache::make_key(0, 0, stream[i], strategy);
        return cache.probe(key, [](const auto&) { return false; }).has_value();
      });
    }
  }
  const std::size_t launches = std::min(stream.size(), o.count("replay_launches"));
  for (std::size_t k = 0; k < launches; ++k) {
    const Query<S>* q = &stream[k];
    tr.span(nm.replay_launch, -1, k, [&] {
      return hyperspace::serve::run_batch<S>(base, std::span(&q, 1), MxmStrategy::kAuto)
          .size();
    });
  }
  hyperspace::sparse::DeltaConfig dcfg;
  dcfg.background = true;
  dcfg.compact_threshold = o.count("compact_threshold");
  hyperspace::sparse::DeltaBase<S> standalone(base, dcfg);
  for (std::size_t k = 0; k < n_warm_w + n_writes; ++k) {
    tr.span(nm.replay_publish, -1, k, [&] { return standalone.mutate(script[k]); });
  }
  layer_p50(r, tr, nm.replay_scatter, "router.scatter_us");
  layer_p50(r, tr, nm.replay_probe, "cache.probe_us");
  layer_p50(r, tr, nm.replay_launch, "kernel.launch_us");
  layer_p50(r, tr, nm.replay_publish, "delta.publish_us");
}

}  // namespace perfbench
