// Ablation — SpGEMM accumulator strategy (DESIGN.md) and mask fusion.
//
// Three axes:
//   * accumulator strategy — Gustavson dense scratch vs flat open-addressing
//     hash vs sorted-merge, with the pre-refactor std::unordered_map
//     accumulator as the baseline the flat table must beat (the
//     BENCH_spgemm.json acceptance row);
//   * dimension regime — ordinary sparse vs hypersparse-huge, where the
//     dense accumulator is impossible and the hash path carries everything;
//   * mask density × fusion — fused mxm_masked (O(kept) accumulator work)
//     vs compute-then-filter at 1%/10%/50% mask density, both senses.

#include "bench_common.hpp"

#include <iostream>

#include "sparse/masked.hpp"
#include "sparse/mxm.hpp"

namespace {

using namespace hyperspace;
using namespace hyperspace::bench;
using sparse::Index;
using sparse::MxmStrategy;
using S = semiring::PlusTimes<double>;

void print_preamble() {
  util::banner("Ablation: SpGEMM accumulators & fused masks");
  std::cout << "auto rule: dense accumulator iff ncols(B) <= 2^24 and "
               "est. flops >= "
            << sparse::kAutoDenseFlopsPerColumn << " * ncols(B)\n";
  // Correctness cross-checks at bench time.
  const auto a = er_matrix(512, 4096, 1);
  const auto b = er_matrix(512, 4096, 2);
  const auto g = sparse::mxm_gustavson<S>(a, b);
  std::cout << "strategies agree on 512x512: "
            << (g == sparse::mxm_hash<S>(a, b) &&
                        g == sparse::mxm_sorted<S>(a, b) &&
                        g == sparse::mxm_hash_baseline<S>(a, b)
                    ? "yes"
                    : "NO")
            << "\n";
  const auto m = er_matrix(512, 8192, 3);
  std::cout << "fused == filtered on 512x512: "
            << (sparse::mxm_masked<S>(a, b, m) ==
                        sparse::mxm_masked_unfused<S>(a, b, m)
                    ? "yes"
                    : "NO")
            << "\n";
}

void bm_gustavson(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 8, 1);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(a, b, MxmStrategy::kGustavson));
  }
  state.SetLabel("Gustavson (dense accumulator)");
}
BENCHMARK(bm_gustavson)->Arg(256)->Arg(1024)->Arg(4096);

void bm_hash(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 8, 1);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(a, b, MxmStrategy::kHash));
  }
  state.SetLabel("hash accumulator");
}
BENCHMARK(bm_hash)->Arg(256)->Arg(1024)->Arg(4096);

sparse::Matrix<double> hyper(Index dim_log2, std::size_t m, std::uint64_t seed) {
  std::vector<sparse::Triple<double>> t;
  for (const auto& e : util::hypersparse_edges(Index{1} << dim_log2, m, seed)) {
    t.push_back({e.src, e.dst, e.weight});
  }
  return sparse::Matrix<double>::from_triples<S>(Index{1} << dim_log2,
                                                 Index{1} << dim_log2,
                                                 std::move(t));
}

void bm_hash_hypersparse(benchmark::State& state) {
  // Gustavson cannot run here (2^40 columns); hash is O(flops).
  const auto a = hyper(static_cast<Index>(state.range(0)), 1 << 14, 1);
  const auto b = hyper(static_cast<Index>(state.range(0)), 1 << 14, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(a, b, MxmStrategy::kHash));
  }
  state.SetLabel("hash on 2^" + std::to_string(state.range(0)) +
                 " dims (Gustavson impossible)");
}
BENCHMARK(bm_hash_hypersparse)->Arg(30)->Arg(40)->Arg(50);

/// Hypersparse bipartite product factors with real per-row accumulator
/// traffic: `rows` occupied rows at huge indices, each with `row_nnz`
/// entries into a small shared inner key space, so each output row folds
/// row_nnz × row_nnz partial products through the accumulator.
sparse::Matrix<double> hyper_wide(Index dim_log2, Index rows, Index row_nnz,
                                  Index inner, std::uint64_t seed) {
  const Index dim = Index{1} << dim_log2;
  util::Xoshiro256 rng(seed);
  std::vector<sparse::Triple<double>> t;
  for (Index r = 0; r < rows; ++r) {
    const auto row =
        static_cast<Index>(rng.bounded(static_cast<std::uint64_t>(dim)));
    for (Index e = 0; e < row_nnz; ++e) {
      t.push_back({row,
                   static_cast<Index>(rng.bounded(
                       static_cast<std::uint64_t>(inner))),
                   rng.uniform(1.0, 2.0)});
    }
  }
  return sparse::Matrix<double>::from_triples<S>(dim, dim, std::move(t));
}

void bm_hash_flat_vs_stdmap(benchmark::State& state) {
  // The acceptance comparison: flat open-addressing accumulator vs the
  // pre-refactor std::unordered_map baseline on the hypersparse path, at
  // ~2^11 flops per occupied row (where the accumulator, not the row
  // dispatch, is the cost). Arg0: log2 dimension; Arg1: 0 = flat, 1 = map.
  const Index inner = Index{1} << 12;
  const auto a =
      hyper_wide(static_cast<Index>(state.range(0)), 1 << 10, 32, inner, 1);
  // B's occupied rows must live in the inner key space A's columns hit.
  util::Xoshiro256 rng(2);
  std::vector<sparse::Triple<double>> tb;
  const Index bdim = Index{1} << static_cast<Index>(state.range(0));
  for (Index r = 0; r < inner; ++r) {
    for (Index e = 0; e < 16; ++e) {
      tb.push_back({r,
                    static_cast<Index>(rng.bounded(
                        static_cast<std::uint64_t>(bdim))),
                    rng.uniform(1.0, 2.0)});
    }
  }
  const auto b = sparse::Matrix<double>::from_triples<S>(bdim, bdim,
                                                         std::move(tb));
  const bool flat = state.range(1) == 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flat ? sparse::mxm_hash<S>(a, b)
                                  : sparse::mxm_hash_baseline<S>(a, b));
  }
  state.SetLabel(std::string(flat ? "flat open-addressing" : "unordered_map") +
                 ", 2^" + std::to_string(state.range(0)) + " dims");
}
BENCHMARK(bm_hash_flat_vs_stdmap)
    ->Args({40, 0})
    ->Args({40, 1})
    ->Args({50, 0})
    ->Args({50, 1});

void bm_sorted_accumulator(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 8, 1);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(a, b, MxmStrategy::kSorted));
  }
  state.SetLabel("sorted-merge accumulator");
}
BENCHMARK(bm_sorted_accumulator)->Arg(256)->Arg(1024)->Arg(4096);

void bm_masked(benchmark::State& state) {
  // Mask-density × accumulator-strategy × fusion sweep.
  // Arg0: mask density in tenths of a percent of the full extent,
  // Arg1: strategy (0 Gustavson, 1 flat hash, 2 sorted),
  // Arg2: 0 = fused (mask consulted during accumulation), 1 = unfused
  //       (compute then filter).
  const Index n = 1024;
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 16, 2);
  const auto density_tenths = static_cast<std::size_t>(state.range(0));
  const auto m = er_matrix(
      n, static_cast<std::size_t>(n) * n * density_tenths / 1000, 3);
  const auto strategy = state.range(1) == 0   ? MxmStrategy::kGustavson
                        : state.range(1) == 1 ? MxmStrategy::kHash
                                              : MxmStrategy::kSorted;
  const bool fused = state.range(2) == 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fused ? sparse::mxm_masked<S>(a, b, m, {}, nullptr, strategy)
              : sparse::mxm_masked_unfused<S>(a, b, m, {}, strategy));
  }
  state.SetLabel(std::string(fused ? "fused" : "unfused") + ", mask " +
                 std::to_string(density_tenths / 10.0) + "%, " +
                 (state.range(1) == 0   ? "Gustavson"
                  : state.range(1) == 1 ? "flat hash"
                                        : "sorted"));
}
BENCHMARK(bm_masked)
    ->Args({10, 0, 0})
    ->Args({10, 0, 1})
    ->Args({10, 1, 0})
    ->Args({10, 1, 1})
    ->Args({10, 2, 0})
    ->Args({10, 2, 1})
    ->Args({100, 0, 0})
    ->Args({100, 0, 1})
    ->Args({100, 1, 0})
    ->Args({100, 1, 1})
    ->Args({500, 0, 0})
    ->Args({500, 0, 1});

void bm_masked_probe(benchmark::State& state) {
  // Mask-probe ablation: binary search vs per-row bitmap on dense mask
  // rows (the first half of the ROADMAP "merge-path masked probe" item).
  // Arg0: mask density in tenths of a percent; Arg1: 0 = kBinary forced,
  // 1 = kBitmap forced, 2 = kAuto (density/amortization gate).
  const Index n = 1024;
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 16, 2);
  const auto density_tenths = static_cast<std::size_t>(state.range(0));
  const auto m = er_matrix(
      n, static_cast<std::size_t>(n) * n * density_tenths / 1000, 3);
  const auto probe = state.range(1) == 0   ? sparse::MaskProbe::kBinary
                     : state.range(1) == 1 ? sparse::MaskProbe::kBitmap
                     : state.range(1) == 3 ? sparse::MaskProbe::kMerge
                                           : sparse::MaskProbe::kAuto;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::mxm_masked<S>(a, b, m, {.complement = false, .probe = probe}));
  }
  state.SetLabel(std::string(state.range(1) == 0   ? "binary-search"
                             : state.range(1) == 1 ? "bitmap"
                             : state.range(1) == 3 ? "merge"
                                                   : "auto") +
                 " probe, mask " + std::to_string(density_tenths / 10.0) +
                 "%");
}
BENCHMARK(bm_masked_probe)
    ->Args({100, 0})
    ->Args({100, 1})
    ->Args({100, 2})
    ->Args({100, 3})
    ->Args({500, 0})
    ->Args({500, 1})
    ->Args({500, 2})
    ->Args({500, 3});

void bm_masked_probe_hypersparse(benchmark::State& state) {
  // The band the merge probe exists for: long mask rows over a column
  // space far too wide to arm a bitmap (2^40 — inadmissible outright), so
  // the contest is binary search's O(log len) per product vs the merge's
  // amortized cursor walk. Arg: 0 = kBinary forced, 1 = kMerge forced,
  // 2 = kAuto (must pick the merge here).
  const Index huge = Index{1} << 40;
  const int rows = 256;
  std::vector<sparse::Triple<double>> ta, tb, tm;
  for (int r = 0; r < rows; ++r) {
    ta.push_back({r, 7, 1.0});
    ta.push_back({r, 11, 2.0});
  }
  // Two long B rows and a long mask row per output row: every product
  // probes a 4096-entry sorted mask row in ascending column order.
  for (int j = 0; j < 4096; ++j) {
    const Index col = (Index{1} << 30) + j * (Index{1} << 18);
    tb.push_back({7, col, 1.0 + j});
    tb.push_back({11, col + 1, 2.0 + j});
  }
  for (int r = 0; r < rows; ++r) {
    for (int j = 0; j < 4096; j += 2) {
      const Index col = (Index{1} << 30) + j * (Index{1} << 18);
      tm.push_back({r, col, 1.0});
    }
  }
  const auto a = sparse::Matrix<double>::from_unique_triples(rows, huge,
                                                             std::move(ta));
  const auto b = sparse::Matrix<double>::from_unique_triples(huge, huge,
                                                             std::move(tb));
  const auto m = sparse::Matrix<double>::from_unique_triples(rows, huge,
                                                             std::move(tm));
  const auto probe = state.range(0) == 0   ? sparse::MaskProbe::kBinary
                     : state.range(0) == 1 ? sparse::MaskProbe::kMerge
                                           : sparse::MaskProbe::kAuto;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sparse::mxm_masked<S>(a, b, m, {.complement = false, .probe = probe}));
  }
  state.SetLabel(std::string(state.range(0) == 0   ? "binary-search"
                             : state.range(0) == 1 ? "merge"
                                                   : "auto") +
                 " probe, hypersparse 2^40 column space");
}
BENCHMARK(bm_masked_probe_hypersparse)->Arg(0)->Arg(1)->Arg(2);

void bm_masked_complement_bfs_style(benchmark::State& state) {
  // The BFS shape: thin frontier row-vector × adjacency with a dense
  // complement ("visited") mask — the case fusion exists for. Arg: percent
  // of vertices already visited.
  const Index n = Index{1} << 16;
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 8, 1);
  util::Xoshiro256 rng(4);
  std::vector<sparse::Triple<double>> ft, vt;
  for (int i = 0; i < 256; ++i) {
    ft.push_back({0, static_cast<Index>(rng.bounded(
                         static_cast<std::uint64_t>(n))), 1.0});
  }
  const auto visited_share = static_cast<std::uint64_t>(state.range(0));
  for (Index v = 0; v < n; ++v) {
    if (rng.bounded(100) < visited_share) vt.push_back({0, v, 1.0});
  }
  const auto frontier =
      sparse::Matrix<double>::from_triples<S>(1, n, std::move(ft));
  const auto visited =
      sparse::Matrix<double>::from_triples<S>(1, n, std::move(vt));
  const bool fused = state.range(1) == 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fused ? sparse::mxm_masked<S>(frontier, a, visited,
                                      {.complement = true})
              : sparse::mxm_masked_unfused<S>(frontier, a, visited,
                                              {.complement = true}));
  }
  state.SetLabel(std::string(fused ? "fused" : "unfused") + ", " +
                 std::to_string(visited_share) + "% visited, ¬mask");
}
BENCHMARK(bm_masked_complement_bfs_style)
    ->Args({50, 0})
    ->Args({50, 1})
    ->Args({95, 0})
    ->Args({95, 1});

void bm_auto(benchmark::State& state) {
  const Index n = state.range(0);
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 8, 1);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 8, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(a, b, MxmStrategy::kAuto));
  }
  state.SetLabel("auto strategy");
}
BENCHMARK(bm_auto)->Arg(1024)->Arg(4096);

void bm_auto_launch_size(benchmark::State& state) {
  // kAuto's launch-size rule: a selector of <rows> random rows against a
  // 2^18-wide R-MAT base, under Arg1 = 0 kGustavson, 1 kHash, 2 kAuto. The
  // dense scratch costs O(ncols) to set up per worker (4 MiB here), the
  // flat hash nothing, so small launches belong to the hash and large ones
  // to the dense scratch; the kAuto row should track the faster of the two
  // at every size.
  static const auto base = rmat_matrix(18, 16, 11);
  const auto rows = static_cast<Index>(state.range(0));
  const MxmStrategy strategies[] = {MxmStrategy::kGustavson, MxmStrategy::kHash,
                                    MxmStrategy::kAuto};
  const auto strategy = strategies[state.range(1)];
  util::Xoshiro256 rng(static_cast<std::uint64_t>(rows));
  std::vector<sparse::Triple<double>> t;
  for (Index i = 0; i < rows; ++i) {
    t.push_back({i,
                 static_cast<Index>(rng.bounded(
                     static_cast<std::uint64_t>(base.nrows()))),
                 1.0});
  }
  const auto sel = sparse::Matrix<double>::from_unique_triples(
      rows, base.nrows(), std::move(t));
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(sel, base, strategy));
  }
  // Which side of the rule this launch falls on (1 = kAuto picks dense).
  state.counters["auto_dense"] =
      sparse::detail::auto_strategy(sel, sparse::detail::BaseView(base)) ==
      MxmStrategy::kGustavson;
  state.SetLabel(std::string(state.range(1) == 0   ? "Gustavson"
                             : state.range(1) == 1 ? "hash"
                                                   : "auto") +
                 ", " + std::to_string(rows) + "-row selector, 2^18 columns");
}
BENCHMARK(bm_auto_launch_size)
    ->ArgsProduct({{1, 8, 64, 4096}, {0, 1, 2}})
    ->Unit(benchmark::kMicrosecond);

void bm_threads(benchmark::State& state) {
  // Thread-scaling sweep on the unified runtime: Arg = thread count.
  // Output is bit-identical at every row of the sweep (determinism
  // contract), so this measures pure scheduling/scaling behavior.
  hyperspace::util::set_num_threads(static_cast<int>(state.range(0)));
  const Index n = 2048;
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 16, 1);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 16, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(a, b, MxmStrategy::kGustavson));
  }
  state.SetLabel("Gustavson, " + std::to_string(state.range(0)) + " threads");
  hyperspace::util::set_num_threads(0);
}
BENCHMARK(bm_threads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void bm_dense_output_regime(benchmark::State& state) {
  // Dense-ish products (high flops per output): Gustavson's advantage peaks.
  const Index n = 512;
  const auto a = er_matrix(n, static_cast<std::size_t>(n) * 64, 3);
  const auto b = er_matrix(n, static_cast<std::size_t>(n) * 64, 4);
  const bool gust = state.range(0) == 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sparse::mxm<S>(
        a, b, gust ? MxmStrategy::kGustavson : MxmStrategy::kHash));
  }
  state.SetLabel(gust ? "dense-output, Gustavson" : "dense-output, hash");
}
BENCHMARK(bm_dense_output_regime)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  print_preamble();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
