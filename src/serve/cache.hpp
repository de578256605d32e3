#pragma once
// ResultCache — the serve-layer answer cache with epoch invalidation.
//
// Under Zipfian popularity the same point lookups arrive thousands of
// times per epoch, and every submit pays a full scatter + launch for an
// answer the engine already produced. This header caches settled answers
// keyed on everything that determines them bit for bit:
//
//   (base epoch, lhs fingerprint, mask fingerprint + sense/probe,
//    strategy, query kind)
//
// The fingerprints (sparse/delta.hpp) hash operand CONTENT — exact value
// bytes, format-independent — and the epoch pins the base state, so a key
// match means the cached matrix is byte-identical to what a fresh launch
// would return. That is the cache's one contract, and the corollary of
// the serving determinism contract: **a cache hit is a byte-identical
// replay, never a recomputation** — tests/test_cache.cpp's randomized
// coherence fuzzer enforces it memcmp-exactly across semirings, thread
// counts, shard counts, and mutation interleavings.
//
// Mechanics:
//
//  - **Epoch invalidation, lazily.** mutate() bumps the engine's epoch, so
//    new probes carry the new epoch and simply never match old entries —
//    no global flush, and in-flight batches (which pinned their snapshots
//    at flush) are unaffected. Stale entries age to the LRU tail and are
//    reclaimed there: each probe checks at most two tail entries against
//    the engine-supplied staleness predicate, bounding probe cost while
//    guaranteeing dead bytes drain under any steady probe rate.
//  - **LRU under a byte budget.** Entry size is the exact payload byte
//    count (row ids, column ids, value bytes — via the same ADL hook the
//    fingerprint uses for non-POD values) plus a fixed overhead constant.
//    Installing evicts from the tail until the new entry fits; an entry
//    larger than the whole budget is not installed.
//  - **Negative entries.** Empty answers are cached under the same epoch
//    key (config `negative`, default on): "no such row at epoch E" is as
//    valid — and as invalidatable — as any other answer.
//  - **Carries bypass.** A query with a fold carry depends on state
//    outside the key, so it neither probes nor installs. The router's
//    straddling chain stages all carry and its shard workers hold no
//    cache, so chains bypass per-stage; the router caches the gathered
//    final answer under its own logical epoch.
//
// Concurrency: one internal mutex. Probes and installs are called from
// engine submit/settle paths that hold no cache-relevant locks, so the
// cache never participates in the engines' lock ordering. Counters
// (hits/misses/evictions) are exported through the process-wide registry
// under `serve.cache.*` as kInvariant — for a fixed submit order they are
// thread-count invariant because probing happens at submit, installing at
// settle, both totally ordered by the engine for any one ticket.

#include <cstdint>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "serve/batch.hpp"
#include "sparse/delta.hpp"
#include "util/metrics.hpp"

namespace hyperspace::serve {

namespace detail {

/// Byte-counting "hasher": satisfies the same bytes()/u64() surface as
/// sparse::detail::Fnv1a, so sparse::detail::fp_value (and every ADL
/// fingerprint_append hook written for it) doubles as an exact payload
/// size measure for non-trivially-copyable values.
class ByteCounter {
 public:
  void bytes(const void*, std::size_t n) noexcept { n_ += n; }
  void u64(std::uint64_t) noexcept { n_ += sizeof(std::uint64_t); }
  std::size_t value() const noexcept { return n_; }

 private:
  std::size_t n_ = 0;
};

/// Exact stored-payload size of a view: per non-empty row its id and
/// extent, per entry its column id and value bytes (ADL hook for non-POD
/// values). The same walk the fingerprint does, counting instead of
/// hashing.
template <typename T>
std::size_t payload_bytes(const sparse::SparseView<T>& v) {
  ByteCounter bc;
  for (std::size_t ri = 0; ri < v.row_ids.size(); ++ri) {
    const auto rc = v.row_cols(ri);
    const auto rv = v.row_vals(ri);
    bc.u64(static_cast<std::uint64_t>(v.row_ids[ri]));
    bc.u64(static_cast<std::uint64_t>(rc.size()));
    for (std::size_t j = 0; j < rc.size(); ++j) {
      bc.u64(static_cast<std::uint64_t>(rc[j]));
      sparse::detail::fp_value(bc, rv[j]);
    }
  }
  return bc.value();
}

}  // namespace detail

template <semiring::Semiring S>
class ResultCache {
  using T = typename S::value_type;

 public:
  struct Config {
    /// Byte budget for cached answers; 0 (the default) disables the cache
    /// entirely — probe and install become no-ops.
    std::size_t max_bytes = 0;
    /// Cache empty answers (negative entries) under the same epoch key.
    bool negative = true;
  };

  /// Everything that determines an answer bit for bit. The semiring is
  /// type-level (the cache is templated on S); the strategy rides along
  /// even though results are strategy-invariant by contract — a config
  /// change must never alias a key.
  struct Key {
    std::uint64_t epoch = 0;      ///< base epoch the answer is valid at
    std::size_t base = 0;         ///< caller's base id (engines pass 0)
    sparse::Fingerprint lhs;      ///< lhs content fingerprint
    bool has_mask = false;
    sparse::Fingerprint mask;     ///< mask content fingerprint (if any)
    bool complement = false;      ///< MaskDesc sense
    unsigned char probe = 0;      ///< MaskDesc probe policy
    unsigned char kind = 0;       ///< QueryKind
    unsigned char strategy = 0;   ///< MxmStrategy
    friend auto operator<=>(const Key&, const Key&) = default;
  };

  /// All counters are exact; for a fixed submit order they are
  /// thread-count invariant (probe at submit, install at settle).
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;    ///< LRU space evictions
    std::uint64_t stale_drops = 0;  ///< epoch-invalidated entries reclaimed
    std::uint64_t installs = 0;     ///< entries actually inserted
    std::uint64_t bytes = 0;        ///< resident payload bytes
    std::uint64_t entries = 0;      ///< resident entries
  };

  /// A probe hit: a COPY of the cached answer (the entry may be evicted
  /// later; the engine owns its result slots) plus its accounted size.
  struct Hit {
    sparse::Matrix<T> value;
    std::size_t bytes = 0;
  };

  explicit ResultCache(Config cfg = {}) : cfg_(cfg) {}

  bool enabled() const noexcept { return cfg_.max_bytes > 0; }
  const Config& config() const noexcept { return cfg_; }

  /// Can this query use the cache at all? Carries seed the fold with
  /// state outside the key; no_cache is the caller's opt-out.
  static bool cacheable(const Query<S>& q) noexcept {
    return !q.carry && !q.no_cache;
  }

  /// Build the key for `q` against base `base` at `epoch`. O(nnz(lhs) +
  /// nnz(mask)) — the fingerprint walks, same order of work as the
  /// executor's exact admission flop count.
  static Key make_key(std::uint64_t epoch, std::size_t base,
                      const Query<S>& q, unsigned char strategy) {
    Key k;
    k.epoch = epoch;
    k.base = base;
    k.lhs = sparse::fingerprint(q.lhs);
    if (q.mask) {
      k.has_mask = true;
      k.mask = sparse::fingerprint(*q.mask);
      k.complement = q.desc.complement;
      k.probe = static_cast<unsigned char>(q.desc.probe);
    }
    k.kind = static_cast<unsigned char>(q.kind);
    k.strategy = strategy;
    return k;
  }

  /// Look up `k`; on a hit the entry moves to the LRU front and a copy of
  /// the answer returns. `stale(key) -> bool` is the engine's staleness
  /// predicate (is this key's epoch no longer the base's current one?);
  /// each probe reclaims at most two stale entries from the LRU tail.
  template <typename StaleFn>
  std::optional<Hit> probe(const Key& k, StaleFn&& stale) {
    if (!enabled()) return std::nullopt;
    std::lock_guard lock(mu_);
    for (int i = 0; i < 2 && !lru_.empty(); ++i) {
      if (!stale(lru_.back())) break;  // tail is live: nothing has aged out
      drop_tail_locked(/*stale_drop=*/true);
    }
    const auto it = map_.find(k);
    if (it == map_.end()) {
      ++stats_.misses;
      bump_counter("serve.cache.misses");
      return std::nullopt;
    }
    lru_.splice(lru_.begin(), lru_, it->second.pos);
    ++stats_.hits;
    bump_counter("serve.cache.hits");
    return Hit{it->second.value, it->second.bytes};
  }

  /// Install `value` under `k`, evicting from the LRU tail until it fits.
  /// Empty answers are skipped unless `negative` is on; an answer larger
  /// than the whole budget is skipped; a key already present just
  /// refreshes its LRU position (a concurrent duplicate computed the same
  /// bytes — the contract guarantees it).
  void install(const Key& k, const sparse::Matrix<T>& value) {
    if (!enabled()) return;
    const auto v = value.view();
    if (v.nnz() == 0 && !cfg_.negative) return;
    const std::size_t b = kEntryOverhead + detail::payload_bytes(v);
    if (b > cfg_.max_bytes) return;
    std::lock_guard lock(mu_);
    const auto it = map_.find(k);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second.pos);
      return;
    }
    while (stats_.bytes + b > cfg_.max_bytes && !lru_.empty()) {
      drop_tail_locked(/*stale_drop=*/false);
    }
    lru_.push_front(k);
    map_.emplace(k, Entry{value, b, lru_.begin()});
    stats_.bytes += b;
    ++stats_.entries;
    ++stats_.installs;
    set_bytes_gauge_locked();
  }

  Stats stats() const {
    std::lock_guard lock(mu_);
    return stats_;
  }

  /// Drop every entry (counters keep accumulating). Test/bench hook.
  void clear() {
    std::lock_guard lock(mu_);
    map_.clear();
    lru_.clear();
    stats_.bytes = 0;
    stats_.entries = 0;
    set_bytes_gauge_locked();
  }

 private:
  /// Accounted per-entry overhead beyond the payload walk: shape header,
  /// key, and list/map bookkeeping, rounded to a fixed constant so entry
  /// sizes (and therefore eviction order) are platform-independent.
  static constexpr std::size_t kEntryOverhead = 128;

  struct Entry {
    sparse::Matrix<T> value;
    std::size_t bytes = 0;
    typename std::list<Key>::iterator pos;
  };

  void drop_tail_locked(bool stale_drop) {
    const auto it = map_.find(lru_.back());
    stats_.bytes -= it->second.bytes;
    --stats_.entries;
    map_.erase(it);
    lru_.pop_back();
    if (stale_drop) {
      ++stats_.stale_drops;
    } else {
      ++stats_.evictions;
      bump_counter("serve.cache.evictions");
    }
    set_bytes_gauge_locked();
  }

  /// Registry export. Counters aggregate across every engine in the
  /// process; the bytes gauge is last-write-wins (one engine's residency
  /// at a time — fine for the single-engine common case, documented for
  /// the rest).
  static void bump_counter(const char* name) {
    if (!util::metrics::enabled()) return;
    util::metrics::Registry::instance()
        .counter(name, util::metrics::Stability::kInvariant)
        .inc();
  }
  void set_bytes_gauge_locked() {
    if (!util::metrics::enabled()) return;
    util::metrics::Registry::instance()
        .gauge("serve.cache.bytes", util::metrics::Stability::kTiming)
        .set(static_cast<double>(stats_.bytes));
  }

  Config cfg_;
  mutable std::mutex mu_;
  std::map<Key, Entry> map_;
  std::list<Key> lru_;  ///< front = most recently used
  Stats stats_;
};

}  // namespace hyperspace::serve
