#pragma once
// Unified parallel runtime — the one scheduling substrate every sparse
// kernel runs on.
//
// The paper's performance story ("as fast as the hardware allows") rests on
// the ⊕.⊗ kernels saturating cores. Rather than sprinkle OpenMP pragmas per
// kernel, everything funnels through this header:
//
//   * parallel_for(begin, end, grain, body[, cost])  — body(i) per index
//   * parallel_for_scratch(b, e, g, make, body[, cost]) — body(i, scratch&),
//     scratch constructed once per worker thread (dense accumulators, hash
//     maps, stamp arrays)
//   * parallel_chunks(b, e, grain, body[, chunk_cost]) — body(chunk, lo, hi),
//     chunk boundaries fixed by `grain` alone, independent of thread count
//   * parallel_reduce(b, e, grain, identity, map, combine[, cost])
//     — deterministic chunked fold: partials are produced per fixed chunk
//     and combined in chunk-index order, so the result is bit-identical for
//     ANY thread count (1 included).
//
// Backend: an OpenMP parallel region when compiled with -fopenmp, otherwise
// a lazily-started persistent std::thread pool. Both honour
// HYPERSPACE_NUM_THREADS (env) and set_num_threads() (programmatic, wins
// over the env; used by tests to sweep thread counts in one process).
//
// Scheduling: the index space is cut into TILES up front — cost-aware when
// the caller passes a per-index cost hint (a hub row whose estimated flops
// dwarf the target tile cost becomes its own tile), even-sized otherwise —
// and the tiles are seeded CONTIGUOUSLY into per-worker deques (tile-affine:
// worker w starts on the w-th contiguous block, so on a pinned multi-socket
// pool neighbouring rows stay on one node). A worker pops tiles from the
// bottom of its own deque; when it drains, it steals the TOP HALF of a
// victim's remaining range in one CAS (Chase–Lev style: owner at the
// bottom, thieves split from the top). A hinted region whose total cost is
// below one tile's worth (kMinParallelCost) never wakes the pool: it runs
// inline on the caller. The pre-tiling static-cursor handout is kept
// behind Scheduler::kStatic / HYPERSPACE_SCHED=static for A/B
// benchmarking.
//
// Determinism contract: WHICH worker runs a tile, and in what steal order,
// is nondeterministic — kernels must write disjoint output slices per
// index/chunk (the mxm row-slice pattern), and every tile folds its indices
// in index order into its own slice, stitched by tile index. Steal order
// changes timing, never bytes: under that discipline every kernel in this
// repo is bit-identical for any thread count, which is what lets
// single-threaded CI vouch for the multi-threaded production binary.
//
// NUMA: pool workers are pinned round-robin across nodes when the topology
// probe (util/numa.hpp) sees more than one; per-worker scratch is
// constructed ON the worker, so first-touch places accumulator pages
// node-local. Portable no-op everywhere else.
//
// Telemetry (util/metrics.hpp, all kTiming — tile shapes depend on the
// thread count, so none of these are thread-count invariant):
//   parallel.tiles    — tiles created across all regions
//   parallel.steals   — successful steal-half operations
//   parallel.idle_ns  — worker time spent finding nothing to pop or steal
//   parallel.tile_ns  — per-tile execution time histogram
// Counters observe, never steer: scheduling reads none of them.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <functional>
#include <mutex>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "util/metrics.hpp"
#include "util/numa.hpp"

#if defined(_OPENMP)
#include <omp.h>
#endif

namespace hyperspace::util {

namespace detail {

inline int& thread_override() {
  static int v = 0;
  return v;
}

}  // namespace detail

/// Programmatic thread-count override (0 restores env/hardware default).
inline void set_num_threads(int n) { detail::thread_override() = n < 0 ? 0 : n; }

/// Worker count: set_num_threads() > HYPERSPACE_NUM_THREADS > hardware.
inline int max_threads() {
  if (const int o = detail::thread_override(); o > 0) return o;
  if (const char* env = std::getenv("HYPERSPACE_NUM_THREADS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
#if defined(_OPENMP)
  return omp_get_max_threads();
#else
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
#endif
}

/// Index-loop scheduler. kWorkSteal (default): cost-aware tiles in
/// per-worker deques with steal-half rebalancing. kStatic: the pre-tiling
/// shared-cursor handout over even grain-sized chunks, kept for A/B
/// benchmarking. Both produce bit-identical results — the switch trades
/// time only.
enum class Scheduler { kWorkSteal = 0, kStatic = 1 };

namespace detail {

inline std::atomic<int>& scheduler_override() {
  static std::atomic<int> v{-1};  // -1: fall back to env/default
  return v;
}

inline Scheduler env_scheduler() {
  static const Scheduler s = [] {
    if (const char* env = std::getenv("HYPERSPACE_SCHED")) {
      if (std::string_view(env) == "static") return Scheduler::kStatic;
    }
    return Scheduler::kWorkSteal;
  }();
  return s;
}

}  // namespace detail

/// Programmatic scheduler override (benches A/B static vs work-steal).
inline void set_scheduler(Scheduler s) {
  detail::scheduler_override().store(static_cast<int>(s),
                                     std::memory_order_relaxed);
}
/// Restore the HYPERSPACE_SCHED / default scheduler choice.
inline void reset_scheduler() {
  detail::scheduler_override().store(-1, std::memory_order_relaxed);
}
/// The active scheduler: set_scheduler() > HYPERSPACE_SCHED=static > steal.
inline Scheduler scheduler() {
  const int o = detail::scheduler_override().load(std::memory_order_relaxed);
  if (o >= 0) return static_cast<Scheduler>(o);
  return detail::env_scheduler();
}

namespace detail {

/// Persistent worker pool for the non-OpenMP backend. Workers are started on
/// first use and parked between regions; run() executes job(tid) for
/// tid ∈ [0, nthreads), with the calling thread serving tid 0.
class ThreadPool {
 public:
  static ThreadPool& instance() {
    static ThreadPool pool;
    return pool;
  }

  /// `job` must not throw (callers wrap bodies in try/catch).
  /// Reentrant calls (a worker body spawning another region) run the inner
  /// job inline on the calling thread — mirroring OpenMP's default
  /// serialized nested regions — since the pool has one job slot. For the
  /// same reason, a second OS thread arriving while the pool is busy (the
  /// serving executor's background flush thread racing the submitting
  /// thread) runs its job inline instead of queueing: single-threaded
  /// execution is always bit-identical, so contention costs parallelism,
  /// never correctness.
  void run(int nthreads, const std::function<void(int)>& job) {
    if (nthreads <= 1 || inside_region()) {
      job(0);
      return;
    }
    std::unique_lock region(region_mu_, std::try_to_lock);
    if (!region.owns_lock()) {
      job(0);
      return;
    }
    const NestedGuard nested;
    std::unique_lock lock(mu_);
    while (static_cast<int>(threads_.size()) < nthreads - 1) {
      const int id = static_cast<int>(threads_.size()) + 1;
      threads_.emplace_back([this, id] { worker_loop(id); });
    }
    job_ = &job;
    job_nthreads_ = nthreads;
    pending_ = nthreads - 1;
    ++epoch_;
    lock.unlock();
    start_cv_.notify_all();
    job(0);
    lock.lock();
    done_cv_.wait(lock, [this] { return pending_ == 0; });
    job_ = nullptr;
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

 private:
  static bool& inside_region() {
    thread_local bool v = false;
    return v;
  }
  struct NestedGuard {
    NestedGuard() { inside_region() = true; }
    ~NestedGuard() { inside_region() = false; }
  };

  ThreadPool() = default;
  ~ThreadPool() {
    {
      std::lock_guard lock(mu_);
      stop_ = true;
    }
    start_cv_.notify_all();
    for (auto& t : threads_) t.join();
  }

  void worker_loop(int id) {
    // Pin to this worker's NUMA node before any scratch is constructed, so
    // first-touch lands every allocation node-local. No-op off multi-node.
    numa::pin_worker(id);
    std::uint64_t seen = 0;
    std::unique_lock lock(mu_);
    while (true) {
      start_cv_.wait(lock, [&] { return stop_ || epoch_ != seen; });
      if (stop_) return;
      seen = epoch_;
      if (id < job_nthreads_) {
        const auto* job = job_;
        lock.unlock();
        {
          const NestedGuard nested;
          (*job)(id);
        }
        lock.lock();
        if (--pending_ == 0) done_cv_.notify_one();
      }
    }
  }

  std::mutex region_mu_;  ///< one region at a time; losers run inline
  std::mutex mu_;
  std::condition_variable start_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  const std::function<void(int)>* job_ = nullptr;
  int job_nthreads_ = 0;
  int pending_ = 0;
  std::uint64_t epoch_ = 0;
  bool stop_ = false;
};

}  // namespace detail

/// Low-level region: run body(tid) on `nthreads` workers (caller included).
/// body must not throw; the higher-level loops below capture exceptions.
template <typename Body>
void parallel_region(int nthreads, Body&& body) {
#if defined(_OPENMP)
#pragma omp parallel num_threads(nthreads)
  { body(omp_get_thread_num()); }
#else
  const std::function<void(int)> fn = std::ref(body);
  detail::ThreadPool::instance().run(nthreads, fn);
#endif
}

namespace detail {

/// The unit cost sentinel: every index weighs the same, so tiling can be
/// computed arithmetically without touching the indices.
struct UnitCost {
  constexpr std::uint64_t operator()(std::ptrdiff_t) const { return 1; }
};

template <typename Cost>
inline constexpr bool kIsUnitCost =
    std::is_same_v<std::remove_cvref_t<Cost>, UnitCost>;

/// One contiguous index range; the atom of the steal scheduler. Bodies run
/// a tile's indices in index order into disjoint per-index slots, so the
/// stitched result is independent of which worker ran which tile.
struct Tile {
  std::ptrdiff_t lo;
  std::ptrdiff_t hi;
};

/// Tiles per worker the tiler aims for: enough slack that steal-half can
/// rebalance a bad draw, few enough that handout cost stays negligible.
inline constexpr std::ptrdiff_t kTilesPerWorker = 8;
/// Hard cap on the tile count (indices are packed into 32-bit deque words).
inline constexpr std::ptrdiff_t kMaxTiles = std::ptrdiff_t{1} << 22;
/// One tile's worth of hinted work, in the hint's own units (rows or
/// entries). A hinted region whose total falls below it runs inline on the
/// caller: handing tiles to other workers would cost more than the region.
inline constexpr std::uint64_t kMinParallelCost = 256;

/// Cut [begin, end) into tiles. Unit cost: even tiles of
/// max(grain, n/(kTilesPerWorker·nthreads)) indices. With a cost hint: walk
/// the per-index costs and close a tile when it reaches
/// total/(kTilesPerWorker·nthreads) — an index whose own cost reaches the
/// target is closed as a SINGLETON tile (the hub row), so no worker ever
/// drags cheap neighbours behind the expensive one. Tiling is a pure
/// function of (range, grain, cost, nthreads): it never reads timing.
template <typename Cost>
std::vector<Tile> build_tiles(std::ptrdiff_t begin, std::ptrdiff_t end,
                              std::ptrdiff_t grain, int nthreads,
                              const Cost& cost) {
  const std::ptrdiff_t n = end - begin;
  const std::ptrdiff_t g = grain > 0 ? grain : 1;
  const std::ptrdiff_t want =
      std::max<std::ptrdiff_t>(1, kTilesPerWorker * nthreads);
  std::vector<Tile> tiles;
  if constexpr (kIsUnitCost<Cost>) {
    std::ptrdiff_t len = std::max(g, (n + want - 1) / want);
    len = std::max(len, (n + kMaxTiles - 1) / kMaxTiles);
    tiles.reserve(static_cast<std::size_t>((n + len - 1) / len));
    for (std::ptrdiff_t lo = begin; lo < end; lo += len) {
      tiles.push_back({lo, std::min(end, lo + len)});
    }
  } else {
    std::uint64_t total = 0;
    for (std::ptrdiff_t i = begin; i < end; ++i) total += cost(i);
    const std::uint64_t target =
        std::max<std::uint64_t>(1, total / static_cast<std::uint64_t>(want));
    // Cost-aware tiles ignore `grain` as a floor — a hub row must be able
    // to stand alone — but the kMaxTiles cap still bounds the count.
    const std::ptrdiff_t min_len = (n + kMaxTiles - 1) / kMaxTiles;
    tiles.reserve(static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(2 * want, kMaxTiles)));
    std::uint64_t acc = 0;
    std::ptrdiff_t lo = begin;
    for (std::ptrdiff_t i = begin; i < end; ++i) {
      const std::uint64_t ci = cost(i);
      if (i > lo && ci >= target && acc > 0 && i - lo >= min_len) {
        tiles.push_back({lo, i});  // close before the hub: it tiles alone
        lo = i;
        acc = 0;
      }
      acc += ci;
      if (acc >= target && i + 1 - lo >= min_len) {
        tiles.push_back({lo, i + 1});
        lo = i + 1;
        acc = 0;
      }
    }
    if (lo < end) tiles.push_back({lo, end});
  }
  return tiles;
}

/// Per-worker deque over a CONTIGUOUS range of tile indices, packed into
/// one 64-bit word (lo:32 | hi:32) so both ends move under a single CAS.
/// The owner pops one tile from the bottom (lo); a thief claims the top
/// half [hi-k, hi) in one CAS and installs it as its OWN range. ABA cannot
/// occur: a tile index never re-enters any deque after being claimed —
/// the deques always partition the still-unclaimed tiles.
struct alignas(64) StealDeque {
  std::atomic<std::uint64_t> range{0};

  static constexpr std::uint64_t pack(std::uint32_t lo, std::uint32_t hi) {
    return (static_cast<std::uint64_t>(lo) << 32) | hi;
  }
  static constexpr std::uint32_t lo_of(std::uint64_t r) {
    return static_cast<std::uint32_t>(r >> 32);
  }
  static constexpr std::uint32_t hi_of(std::uint64_t r) {
    return static_cast<std::uint32_t>(r);
  }

  void seed(std::uint32_t lo, std::uint32_t hi) {
    range.store(pack(lo, hi), std::memory_order_relaxed);
  }

  /// Owner: pop the bottom tile. False when empty.
  bool pop(std::uint32_t& t) {
    std::uint64_t r = range.load(std::memory_order_acquire);
    while (true) {
      const std::uint32_t lo = lo_of(r), hi = hi_of(r);
      if (lo >= hi) return false;
      if (range.compare_exchange_weak(r, pack(lo + 1, hi),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        t = lo;
        return true;
      }
    }
  }

  /// Thief: steal the top half (⌈size/2⌉ tiles). False when empty.
  bool steal_half(std::uint32_t& s_lo, std::uint32_t& s_hi) {
    std::uint64_t r = range.load(std::memory_order_acquire);
    while (true) {
      const std::uint32_t lo = lo_of(r), hi = hi_of(r);
      if (lo >= hi) return false;
      const std::uint32_t k = (hi - lo + 1) / 2;
      if (range.compare_exchange_weak(r, pack(lo, hi - k),
                                      std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
        s_lo = hi - k;
        s_hi = hi;
        return true;
      }
    }
  }
};

/// The work-stealing region driver: seed tile-affine blocks, run
/// pop → steal-half → idle-wait until the global remaining counter drains.
/// Robust to the backend granting fewer workers than asked (nested/inline
/// pool regions, OpenMP under load): unstarted workers' seeds are simply
/// stolen. First exception wins; later tiles are claimed but skipped.
template <typename MakeScratch, typename Body>
void run_worksteal(const std::vector<Tile>& tiles, int nthreads,
                   MakeScratch&& per_worker, Body&& body) {
  const auto ntiles = static_cast<std::uint32_t>(tiles.size());
  std::vector<StealDeque> deques(static_cast<std::size_t>(nthreads));
  for (int w = 0; w < nthreads; ++w) {
    const auto lo = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(ntiles) * w / nthreads);
    const auto hi = static_cast<std::uint32_t>(
        static_cast<std::uint64_t>(ntiles) * (w + 1) / nthreads);
    deques[static_cast<std::size_t>(w)].seed(lo, hi);
  }
  std::atomic<std::ptrdiff_t> remaining{static_cast<std::ptrdiff_t>(ntiles)};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;

  const bool telemetry = metrics::enabled();
  metrics::Histogram* tile_hist = nullptr;
  if (telemetry) {
    static auto& h = metrics::Registry::instance().histogram("parallel.tile_ns");
    tile_hist = &h;
  }
  std::atomic<std::uint64_t> steals{0}, idle_ns{0};

  parallel_region(nthreads, [&](int tid) {
    auto scratch = per_worker();
    std::uint64_t my_steals = 0, my_idle = 0;
    auto& mine = deques[static_cast<std::size_t>(tid)];
    const auto exec = [&](std::uint32_t t) {
      if (!failed.load(std::memory_order_relaxed)) {
        const std::uint64_t t0 = telemetry ? metrics::clock_ns() : 0;
        try {
          const Tile tile = tiles[t];
          for (std::ptrdiff_t i = tile.lo; i < tile.hi; ++i) body(i, scratch);
        } catch (...) {
          std::lock_guard lock(error_mu);
          if (!error) error = std::current_exception();
          failed.store(true, std::memory_order_relaxed);
        }
        if (telemetry) tile_hist->record(metrics::clock_ns() - t0);
      }
      remaining.fetch_sub(1, std::memory_order_acq_rel);
    };
    while (true) {
      std::uint32_t t;
      if (mine.pop(t)) {
        exec(t);
        continue;
      }
      if (remaining.load(std::memory_order_acquire) <= 0) break;
      const std::uint64_t i0 = telemetry ? metrics::clock_ns() : 0;
      bool stole = false;
      for (int k = 1; k < nthreads && !stole; ++k) {
        auto& victim =
            deques[static_cast<std::size_t>((tid + k) % nthreads)];
        std::uint32_t s_lo, s_hi;
        if (victim.steal_half(s_lo, s_hi)) {
          // Keep the first stolen tile to run now; publish the rest as our
          // own range so further thieves can split it again.
          mine.seed(s_lo + 1, s_hi);
          ++my_steals;
          if (telemetry) my_idle += metrics::clock_ns() - i0;
          exec(s_lo);
          stole = true;
        }
      }
      if (!stole) {
        std::this_thread::yield();
        if (telemetry) my_idle += metrics::clock_ns() - i0;
      }
    }
    if (telemetry) {
      steals.fetch_add(my_steals, std::memory_order_relaxed);
      idle_ns.fetch_add(my_idle, std::memory_order_relaxed);
    }
  });

  if (telemetry) {
    namespace hm = metrics;
    static auto& c_tiles =
        hm::Registry::instance().counter("parallel.tiles", hm::Stability::kTiming);
    static auto& c_steals =
        hm::Registry::instance().counter("parallel.steals", hm::Stability::kTiming);
    static auto& c_idle =
        hm::Registry::instance().counter("parallel.idle_ns", hm::Stability::kTiming);
    c_tiles.add(ntiles);
    c_steals.add(steals.load(std::memory_order_relaxed));
    c_idle.add(idle_ns.load(std::memory_order_relaxed));
  }
  if (error) std::rethrow_exception(error);
}

/// The static-chunk region driver (Scheduler::kStatic): even grain-sized
/// chunks handed out through one shared atomic cursor. The pre-steal
/// baseline, kept so benches can price the scheduler against it.
template <typename MakeScratch, typename Body>
void run_static(std::ptrdiff_t begin, std::ptrdiff_t end, std::ptrdiff_t g,
                std::ptrdiff_t nchunks, int nthreads,
                MakeScratch&& per_worker, Body&& body) {
  std::atomic<std::ptrdiff_t> cursor{0};
  std::exception_ptr error;
  std::mutex error_mu;
  parallel_region(nthreads, [&](int) {
    auto scratch = per_worker();
    try {
      while (true) {
        const std::ptrdiff_t c = cursor.fetch_add(1, std::memory_order_relaxed);
        if (c >= nchunks) break;
        const std::ptrdiff_t lo = begin + c * g;
        const std::ptrdiff_t hi = std::min(end, lo + g);
        for (std::ptrdiff_t i = lo; i < hi; ++i) body(i, scratch);
      }
    } catch (...) {
      std::lock_guard lock(error_mu);
      if (!error) error = std::current_exception();
    }
  });
  if (error) std::rethrow_exception(error);
}

/// Shared loop driver: tile (cost-aware when hinted), then run under the
/// active scheduler. `per_worker` makes each worker's scratch,
/// `body(i, scratch)` runs per index. A hinted region below one tile's
/// worth runs inline — tiles stitch by index, so where a region runs
/// never changes bytes. First exception wins and is rethrown on the
/// calling thread.
template <typename MakeScratch, typename Body, typename Cost = UnitCost>
void for_each_chunked(std::ptrdiff_t begin, std::ptrdiff_t end,
                      std::ptrdiff_t grain, MakeScratch&& per_worker,
                      Body&& body, Cost&& cost = {}) {
  const std::ptrdiff_t n = end - begin;
  if (n <= 0) return;
  const std::ptrdiff_t g = grain > 0 ? grain : 1;
  const std::ptrdiff_t nchunks = (n + g - 1) / g;
  const int nt = max_threads();
  const int nthreads = static_cast<int>(std::min<std::ptrdiff_t>(nt, nchunks));

  const auto run_inline = [&] {
    auto scratch = per_worker();
    for (std::ptrdiff_t i = begin; i < end; ++i) body(i, scratch);
  };
  if (nthreads <= 1) return run_inline();
  if constexpr (!kIsUnitCost<Cost>) {
    // The sum stops at the threshold: the probe is O(min(n, threshold)).
    std::uint64_t total = 0;
    for (auto i = begin; i < end && total < kMinParallelCost; ++i) {
      total += cost(i);
    }
    if (total < kMinParallelCost) return run_inline();
  }
  if (scheduler() == Scheduler::kStatic) {
    run_static(begin, end, g, nchunks, nthreads, per_worker, body);
    return;
  }
  const auto tiles = build_tiles(begin, end, g, nt, cost);
  const int tile_threads = static_cast<int>(std::min<std::ptrdiff_t>(
      nt, static_cast<std::ptrdiff_t>(tiles.size())));
  if (tile_threads <= 1) return run_inline();
  run_worksteal(tiles, tile_threads, per_worker, body);
}

struct NoScratch {};

}  // namespace detail

/// Parallel loop: body(i) for i in [begin, end), `grain` indices per task.
/// The optional cost hint `cost(i)` estimates the relative work of index i
/// (for sparse kernels, the row's stored extent — free from the CSR row
/// pointers). The tiler splits by accumulated cost instead of index count,
/// so a hub row becomes its own tile, and a region below one tile's worth
/// runs inline. Hints steer scheduling only — results are bit-identical
/// with or without them.
template <typename Body, typename Cost = detail::UnitCost>
void parallel_for(std::ptrdiff_t begin, std::ptrdiff_t end,
                  std::ptrdiff_t grain, Body&& body, Cost&& cost = {}) {
  detail::for_each_chunked(
      begin, end, grain, [] { return detail::NoScratch{}; },
      [&body](std::ptrdiff_t i, detail::NoScratch&) { body(i); },
      std::forward<Cost>(cost));
}

/// Parallel loop with per-thread scratch: `make()` is invoked once per
/// worker, body(i, scratch&) per index, with the optional cost hint of
/// parallel_for. The canonical shape for kernels with dense accumulators /
/// stamp arrays / hash maps. Scratch is constructed ON the worker thread,
/// so with NUMA pinning (util/numa.hpp) first-touch places it node-local.
template <typename MakeScratch, typename Body,
          typename Cost = detail::UnitCost>
void parallel_for_scratch(std::ptrdiff_t begin, std::ptrdiff_t end,
                          std::ptrdiff_t grain, MakeScratch&& make,
                          Body&& body, Cost&& cost = {}) {
  detail::for_each_chunked(begin, end, grain,
                           std::forward<MakeScratch>(make),
                           std::forward<Body>(body), std::forward<Cost>(cost));
}

/// Number of fixed-size chunks `parallel_chunks` will produce.
inline std::ptrdiff_t chunk_count(std::ptrdiff_t n, std::ptrdiff_t grain) {
  const std::ptrdiff_t g = grain > 0 ? grain : 1;
  return n <= 0 ? 0 : (n + g - 1) / g;
}

/// Chunk-level loop: body(chunk_index, lo, hi) per fixed chunk. Chunk
/// boundaries depend only on `grain`, never on the thread count or the
/// scheduler — the building block for stitch-style kernels (filters,
/// counting transpose) and order-fixed reductions. The steal scheduler
/// moves whole chunks between workers; it never re-cuts them.
template <typename Body>
void parallel_chunks(std::ptrdiff_t begin, std::ptrdiff_t end,
                     std::ptrdiff_t grain, Body&& body) {
  const std::ptrdiff_t g = grain > 0 ? grain : 1;
  const std::ptrdiff_t nchunks = chunk_count(end - begin, g);
  parallel_for(0, nchunks, 1, [&](std::ptrdiff_t c) {
    const std::ptrdiff_t lo = begin + c * g;
    const std::ptrdiff_t hi = std::min(end, lo + g);
    body(c, lo, hi);
  });
}

/// parallel_chunks with a chunk cost hint: `chunk_cost(lo, hi)` estimates
/// the work of one fixed chunk (e.g. the stored entries its rows span).
/// Boundaries stay a function of `grain` alone.
template <typename Body, typename ChunkCost>
void parallel_chunks(std::ptrdiff_t begin, std::ptrdiff_t end,
                     std::ptrdiff_t grain, Body&& body, ChunkCost&& chunk_cost) {
  const std::ptrdiff_t g = grain > 0 ? grain : 1;
  const std::ptrdiff_t nchunks = chunk_count(end - begin, g);
  parallel_for(
      0, nchunks,
      1,
      [&](std::ptrdiff_t c) {
        const std::ptrdiff_t lo = begin + c * g;
        const std::ptrdiff_t hi = std::min(end, lo + g);
        body(c, lo, hi);
      },
      [&, g](std::ptrdiff_t c) -> std::uint64_t {
        const std::ptrdiff_t lo = begin + c * g;
        const std::ptrdiff_t hi = std::min(end, lo + g);
        return chunk_cost(lo, hi);
      });
}

/// Parallel stable sort: fixed-grain chunks are stable-sorted concurrently,
/// then merged pairwise in rounds (std::inplace_merge on fixed boundaries).
/// Stability is preserved end-to-end — equal elements keep input order — and
/// a stable sort's output is a pure function of (input, comparator), so the
/// result is bit-identical for every thread count.
template <typename RandomIt, typename Compare>
void parallel_stable_sort(RandomIt first, RandomIt last, Compare comp) {
  const std::ptrdiff_t n = last - first;
  constexpr std::ptrdiff_t kSortGrain = std::ptrdiff_t{1} << 13;
  if (n <= kSortGrain * 2 || max_threads() <= 1) {
    std::stable_sort(first, last, comp);
    return;
  }
  parallel_chunks(0, n, kSortGrain,
                  [&](std::ptrdiff_t, std::ptrdiff_t lo, std::ptrdiff_t hi) {
                    std::stable_sort(first + lo, first + hi, comp);
                  });
  for (std::ptrdiff_t width = kSortGrain; width < n; width *= 2) {
    const std::ptrdiff_t npairs = chunk_count(n, 2 * width);
    parallel_for(0, npairs, 1, [&](std::ptrdiff_t p) {
      const std::ptrdiff_t lo = p * 2 * width;
      const std::ptrdiff_t mid = std::min(lo + width, n);
      const std::ptrdiff_t hi = std::min(lo + 2 * width, n);
      if (mid < hi) std::inplace_merge(first + lo, first + mid, first + hi, comp);
    });
  }
}

/// Deterministic chunked reduction: each fixed chunk folds
/// map(i) into `identity` serially (index order), then the per-chunk
/// partials are combined in chunk-index order. Because chunking is a
/// function of `grain` only, the result is bit-identical for every thread
/// count — including non-associative-in-float ⊕. The optional per-index
/// cost hint only weights how chunks are tiled across workers; boundaries,
/// combine order, and the result bits are unchanged by it.
template <typename T, typename Map, typename Combine, typename Cost = detail::UnitCost>
T parallel_reduce(std::ptrdiff_t begin, std::ptrdiff_t end,
                  std::ptrdiff_t grain, T identity, Map&& map,
                  Combine&& combine, Cost&& cost = {}) {
  const std::ptrdiff_t nchunks = chunk_count(end - begin, grain);
  if (nchunks == 0) return identity;
  std::vector<T> partials(static_cast<std::size_t>(nchunks), identity);
  const auto fold = [&](std::ptrdiff_t c, std::ptrdiff_t lo, std::ptrdiff_t hi) {
    T acc = identity;
    for (std::ptrdiff_t i = lo; i < hi; ++i) {
      acc = combine(std::move(acc), map(i));
    }
    partials[static_cast<std::size_t>(c)] = std::move(acc);
  };
  if constexpr (detail::kIsUnitCost<Cost>) {
    parallel_chunks(begin, end, grain, fold);
  } else {
    parallel_chunks(begin, end, grain, fold,
                    [&](std::ptrdiff_t lo, std::ptrdiff_t hi) {
                      std::uint64_t c = 0;
                      for (std::ptrdiff_t i = lo; i < hi; ++i) c += cost(i);
                      return c;
                    });
  }
  T out = std::move(partials[0]);
  for (std::ptrdiff_t c = 1; c < nchunks; ++c) {
    out = combine(std::move(out), std::move(partials[static_cast<std::size_t>(c)]));
  }
  return out;
}

}  // namespace hyperspace::util
