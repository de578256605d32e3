// keyed-planner: db::planned_batch over a string-keyed array::AssocArray.
// The only workload where the array key-set layer and the db planner hold
// the time; serve and delta are bypassed. Every batch carries the same
// fixed mix of three query kinds, so each batch does the same work:
//   coalescible — inner keys inside the base's row keys (one launch);
//   annihilated — inner keys disjoint from the base's rows (§IV skip);
//   fallback    — one inner key outside the base's rows (per-query mtimes,
//                 which realigns the whole base).

#include <string>

#include "array/assoc_array.hpp"
#include "array/batch.hpp"
#include "common.hpp"
#include "db/planner.hpp"
#include "serve/batch.hpp"

namespace perfbench {
namespace {

namespace array = hyperspace::array;
namespace db = hyperspace::db;
using Assoc = array::AssocArray<S>;
using BatchQuery = array::BatchQuery<S>;

/// IPv4-style key of vertex v: an odd-multiplier bijection of the 32-bit
/// id space, so distinct vertices always get distinct addresses.
std::string ip_of(std::uint64_t v, std::uint64_t seed) {
  const auto x = static_cast<std::uint32_t>(v * 2654435761ULL + seed * 40503ULL);
  return std::to_string(x >> 24) + "." + std::to_string((x >> 16) & 0xFF) + "." +
         std::to_string((x >> 8) & 0xFF) + "." + std::to_string(x & 0xFF);
}

Assoc query_array(const std::string& id, const std::vector<std::string>& cols) {
  std::vector<array::Key> k1, k2;
  for (const auto& c : cols) {
    k1.emplace_back(id);
    k2.emplace_back(c);
  }
  return Assoc(k1, k2, std::vector<double>(cols.size(), 1.0));
}

}  // namespace

void run_keyed_planner(const Options& o, Report& r, Trace& tr) {
  pin_kernel_workers(static_cast<int>(o.num("kernel_workers")));
  const int scale = static_cast<int>(o.num("scale"));
  const std::uint64_t ip_seed = stream_seed(o.seed, 7);

  // The keyed input lives only while it is ingested; the peak resident set
  // is reset after it is generated.
  Assoc base;
  double setup_s = 0;
  {
    std::vector<array::Key> k1, k2;
    std::vector<double> vals;
    {
      const auto edges = rmat(scale, o.num("edge_factor"), stream_seed(o.seed, 1));
      k1.reserve(edges.size());
      k2.reserve(edges.size());
      vals.reserve(edges.size());
      for (const auto& e : edges) {
        k1.emplace_back(ip_of(static_cast<std::uint64_t>(e.row), ip_seed));
        k2.emplace_back(ip_of(static_cast<std::uint64_t>(e.col), ip_seed));
        vals.push_back(e.val);
      }
    }
    reset_peak_rss();
    setup_s = median_setup(o.count("setup_reps"), [&](bool) {
      base = Assoc();
      const auto t0 = now_ns();
      base = Assoc(k1, k2, vals);
      return seconds_since(t0);
    });
  }

  // The batch. Coalescible queries cycle through a few distinct ones, so
  // the per-query references below stay affordable.
  Rng qrng(stream_seed(o.seed, 2));
  const auto& row_keys = base.row_keys();
  const std::size_t width = o.count("keys_per_query");
  const auto present = [&] { return row_keys[qrng.below(row_keys.size())].as_string(); };
  const auto absent = [&] {
    // Vertex ids past the generated range never occur in the base.
    return ip_of((std::uint64_t{1} << scale) + qrng.below(1u << 20), ip_seed);
  };
  std::vector<BatchQuery> distinct;
  const std::size_t n_distinct = o.count("distinct_coalescible");
  for (std::size_t i = 0; i < n_distinct; ++i) {
    std::vector<std::string> cols;
    for (std::size_t j = 0; j < width; ++j) cols.push_back(present());
    std::string id = "c";
    id += std::to_string(i);
    distinct.push_back({query_array(id, cols), std::nullopt, {}});
  }
  std::vector<std::string> acols, fcols;
  for (std::size_t j = 0; j < width; ++j) acols.push_back(absent());
  for (std::size_t j = 0; j + 1 < width; ++j) fcols.push_back(present());
  fcols.push_back(absent());
  const BatchQuery annihilated{query_array("a", acols), std::nullopt, {}};
  const BatchQuery fallback{query_array("f", fcols), std::nullopt, {}};

  std::vector<BatchQuery> batch;
  std::vector<std::size_t> ref_of;  // index into refs
  const std::size_t n_coalesce = o.count("coalescible_per_batch");
  const std::size_t n_annihilate = o.count("annihilated_per_batch");
  for (std::size_t i = 0; i < n_coalesce; ++i) {
    batch.push_back(distinct[i % n_distinct]);
    ref_of.push_back(i % n_distinct);
  }
  for (std::size_t i = 0; i < n_annihilate; ++i) {
    batch.push_back(annihilated);
    ref_of.push_back(n_distinct);
  }
  batch.push_back(fallback);
  ref_of.push_back(n_distinct + 1);

  // References: each distinct query alone through db::planned_mtimes.
  std::vector<Assoc> refs;
  for (const auto& q : distinct) refs.push_back(db::planned_mtimes(q.lhs, base));
  refs.push_back(db::planned_mtimes(annihilated.lhs, base));
  refs.push_back(db::planned_mtimes(fallback.lhs, base));

  const std::size_t n_batches = std::max<std::size_t>(
      1, static_cast<std::size_t>(o.num("batches_per_s") * o.seconds + 0.5));
  const std::size_t n_warm = o.count("warmup_batches");
  const std::uint32_t sp_batch = tr.name("planned_batch");
  const std::uint32_t sp_row = tr.name("replay.row");
  const std::uint32_t sp_batchable = tr.name("replay.batchable");
  const std::uint32_t sp_realign = tr.name("replay.realign");
  const std::uint32_t sp_wrap = tr.name("replay.wrap");
  const std::uint32_t sp_launch = tr.name("replay.run_batch");
  const std::uint32_t sp_fallback = tr.name("replay.planned_mtimes");
  const std::size_t replays = o.count("replay_batches");
  if (o.trace) tr.store().enable(n_batches + replays * (5 * batch.size() + 1) + 64);

  db::PlanStats ps;
  hyperspace::serve::ServeStats ss;
  std::vector<std::int64_t> took;
  const auto check = [&](const std::vector<Assoc>& out) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (i >= out.size() || !(out[i] == refs[ref_of[i]])) {
        r.fail("keyed query " + std::to_string(i) + " differs from planned_mtimes");
      }
    }
  };
  for (std::size_t b = 0; b < n_warm; ++b) check(db::planned_batch(base, batch));
  for (std::size_t b = 0; b < n_batches; ++b) {
    std::vector<Assoc> out;
    const auto t0 = now_ns();
    try {
      out = tr.span(sp_batch, -1, b, [&] { return db::planned_batch(base, batch, &ps, &ss); });
    } catch (const std::exception& e) {
      r.fail(std::string("planned_batch: ") + e.what());
      continue;
    }
    took.push_back(now_ns() - t0);
    check(out);
  }
  r.peak_rss_mb = read_peak_rss_mb();
  r.attempted = (n_warm + n_batches) * batch.size();

  std::int64_t busy = 0;
  for (const auto t : took) busy += t;
  const auto lat = summarize_ns(took);
  const std::size_t queries = took.size() * batch.size();
  r.e2e.push_back({"op_p50_us", lat.p50_us.value_or(0), "us", lat.n});
  r.e2e.push_back({"ops_per_s", double(queries) / (double(busy) / 1e9), "1/s", queries});
  r.e2e.push_back({"setup_s", setup_s, "s", o.count("setup_reps")});
  r.exact = {{"db.products_skipped", std::uint64_t(ps.products_skipped)},
             {"db.products_evaluated", std::uint64_t(ps.products_evaluated)},
             {"db.queries_batched", std::uint64_t(ps.queries_batched)},
             {"db.queries_fallback", std::uint64_t(ps.queries_fallback)},
             {"kernel.flops_kept", ss.flops_kept},
             {"kernel.flops_skipped", ss.flops_skipped}};

  if (!tr.on()) return;
  const double q = double(queries);
  r.layer.push_back({"db.fallback_ratio", ps.queries_fallback / q, "ratio", queries});
  r.layer.push_back({"db.skip_ratio", ps.products_skipped / q, "ratio", queries});
  r.layer.push_back({"executor.queries_per_launch",
                     ss.kernel_launches ? double(ss.queries) / double(ss.kernel_launches) : 0,
                     "ratio", ss.kernel_launches});
  r.layer.push_back({"kernel.flops_kept", double(ss.flops_kept), "count", 1});
  r.layer.push_back({"kernel.flops_skipped", double(ss.flops_skipped), "count", 1});
  layer_p50(r, tr, sp_batch, "db.batch_us");

  // Replay: the batch's queries through the array layer's public steps
  // that planned_batch runs for them, one span per call. The planner's
  // §IV precheck builds the base's non-empty row key set once per query.
  for (std::size_t k = 0; k < replays; ++k) {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      tr.span(sp_row, -1, i, [&] { return base.row().size(); });
      tr.span(sp_batchable, -1, i, [&] { return array::batchable(base, batch[i]); });
    }
    for (std::size_t i = 0; i < n_coalesce; ++i) {
      const auto& lhs = batch[i].lhs;
      const Assoc aligned = tr.span(sp_realign, -1, i, [&] {
        return lhs.realign(lhs.row_keys(), base.row_keys());
      });
      const auto query = hyperspace::serve::Query<S>::analytic(aligned.matrix());
      const auto* qp = &query;
      auto rs = tr.span(sp_launch, -1, i, [&] {
        return hyperspace::serve::run_batch<S>(base.matrix(), std::span(&qp, 1));
      });
      tr.span(sp_wrap, -1, i, [&] {
        return Assoc(lhs.row_keys(), base.col_keys(), std::move(rs.front()));
      });
    }
    tr.span(sp_fallback, -1, k, [&] { return db::planned_mtimes(fallback.lhs, base); });
  }
  layer_p50(r, tr, sp_row, "array.row_us");
  layer_p50(r, tr, sp_batchable, "array.batchable_us");
  layer_p50(r, tr, sp_realign, "array.realign_us");
  layer_p50(r, tr, sp_wrap, "array.wrap_us");
  layer_p50(r, tr, sp_launch, "kernel.launch_us");
  layer_p50(r, tr, sp_fallback, "db.fallback_us");
}

}  // namespace perfbench
