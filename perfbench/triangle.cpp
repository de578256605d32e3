// triangle-count: C = L ⊕.⊗ L ⟨L⟩ on the strict lower triangle of a
// symmetrized scale-18 R-MAT, the masked SpGEMM at a size where the
// accumulator, the mask probe and the work-stealing scheduler block the
// result. Each product must equal the one-worker product byte for byte.

#include <algorithm>

#include "common.hpp"
#include "sparse/apply.hpp"
#include "sparse/masked.hpp"
#include "util/metrics.hpp"

namespace perfbench {

void run_triangle_count(const Options& o, Report& r, Trace& tr) {
  const int workers = static_cast<int>(o.num("kernel_workers"));
  const int scale = static_cast<int>(o.num("scale"));
  const Index n = Index{1} << scale;

  // Set-up is the program's own ingest of the undirected edge stream as it
  // arrives (both directions of every R-MAT edge, duplicates and all, in
  // stream order): build A, keep its strict lower triangle, and reduce it
  // to a 0/1 pattern. Each repetition draws the stream afresh, outside the
  // clock, so no copy of it outlives its ingest.
  const auto edge_stream = [&] {
    Triples s = rmat(scale, o.num("edge_factor"), stream_seed(o.seed, 1));
    s.erase(std::remove_if(s.begin(), s.end(), [](const auto& e) { return e.row == e.col; }),
            s.end());
    const std::size_t m = s.size();
    s.resize(2 * m);
    for (std::size_t i = m; i-- > 0;) {
      const auto e = s[i];
      s[2 * i] = {e.row, e.col, 1.0};
      s[2 * i + 1] = {e.col, e.row, 1.0};
    }
    return s;
  };
  pin_kernel_workers(workers);
  reset_peak_rss();
  Matrix L;
  const double setup_s = median_setup(o.count("setup_reps"), [&](bool) {
    L = Matrix();
    Triples stream = edge_stream();
    const auto t0 = now_ns();
    const Matrix A = Matrix::from_triples<S>(n, n, std::move(stream));
    L = hyperspace::sparse::zero_norm<S>(hyperspace::sparse::select(
        A, [](Index i, Index j, const double&) { return i > j; }));
    return seconds_since(t0);
  });

  const std::uint32_t sp_product = tr.name("mxm_masked");
  const std::uint32_t sp_one = tr.name("mxm_masked.one_worker");
  const std::size_t n_products = std::max<std::size_t>(
      1, static_cast<std::size_t>(o.num("products_per_s") * o.seconds + 0.5));
  if (o.trace) tr.store().enable(n_products + 64);

  // The reference: the same product on one worker (determinism contract).
  pin_kernel_workers(1);
  hyperspace::sparse::MxmMaskStats ref_stats;
  const auto t1 = now_ns();
  const Matrix ref = tr.span(sp_one, -1, 0, [&] {
    return hyperspace::sparse::mxm_masked<S>(L, L, L, {}, &ref_stats);
  });
  const std::int64_t one_worker_ns = now_ns() - t1;
  pin_kernel_workers(workers);

  const auto product = [&](hyperspace::sparse::MxmMaskStats& st) {
    return hyperspace::sparse::mxm_masked<S>(L, L, L, {}, &st);
  };
  for (std::size_t k = 0; k < o.count("warmup_products"); ++k) {
    hyperspace::sparse::MxmMaskStats st;
    if (!same_bytes(product(st), ref)) r.fail("warm-up product differs from one worker");
  }

  auto& reg = hyperspace::util::metrics::Registry::instance();
  const auto steals0 = reg.counter_value("parallel.steals");
  const auto idle0 = reg.counter_value("parallel.idle_ns");
  std::vector<std::int64_t> took;
  for (std::size_t k = 0; k < n_products; ++k) {
    hyperspace::sparse::MxmMaskStats st;
    const auto t0 = now_ns();
    const Matrix c = tr.span(sp_product, -1, k, [&] { return product(st); });
    took.push_back(now_ns() - t0);
    if (!same_bytes(c, ref) || st.flops_kept != ref_stats.flops_kept ||
        st.flops_skipped != ref_stats.flops_skipped) {
      r.fail("product " + std::to_string(k) + " differs from the one-worker product");
    }
  }
  r.peak_rss_mb = read_peak_rss_mb();
  const auto steals = reg.counter_value("parallel.steals") - steals0;
  const auto idle_ns = reg.counter_value("parallel.idle_ns") - idle0;
  r.attempted = n_products + o.count("warmup_products");

  double triangles = 0;
  for (const auto v : ref.view().vals) triangles += v;
  std::int64_t busy = 0;
  for (const auto t : took) busy += t;
  const auto lat = summarize_ns(took);
  r.e2e.push_back({"op_p50_us", lat.p50_us.value_or(0), "us", lat.n});
  r.e2e.push_back({"ops_per_s", double(took.size()) / (double(busy) / 1e9), "1/s", took.size()});
  r.e2e.push_back({"setup_s", setup_s, "s", o.count("setup_reps")});
  r.exact = {{"kernel.flops_kept", ref_stats.flops_kept},
             {"kernel.flops_skipped", ref_stats.flops_skipped},
             {"tc.triangles", static_cast<std::uint64_t>(triangles)}};

  if (!tr.on()) return;
  const double flops = double(ref_stats.flops_kept + ref_stats.flops_skipped);
  r.layer.push_back({"kernel.flops_kept", double(ref_stats.flops_kept), "count", 1});
  r.layer.push_back({"kernel.flops_skipped", double(ref_stats.flops_skipped), "count", 1});
  if (lat.p50_us) {
    r.layer.push_back({"kernel.launch_us", *lat.p50_us, "us", lat.n});
    r.layer.push_back({"kernel.ns_per_flop", *lat.p50_us * 1e3 / flops, "ns", lat.n});
    r.layer.push_back({"parallel.speedup", double(one_worker_ns) / (*lat.p50_us * 1e3),
                       "ratio", lat.n});
  }
  r.layer.push_back({"parallel.idle_ratio", double(idle_ns) / (double(workers) * double(busy)),
                     "ratio", took.size()});
  r.layer.push_back({"parallel.steals", double(steals), "count", took.size()});
}

}  // namespace perfbench
