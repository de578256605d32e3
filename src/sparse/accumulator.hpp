#pragma once
// Per-row SpGEMM accumulators — the pluggable core of the multiply engine.
//
// Every ⊕.⊗ product in this library reduces to the same inner loop: scatter
// partial products S::mul(a_ik, b_kj) into a per-row accumulator keyed by
// output column j, folding duplicates with S::add in encounter order, then
// extract the row sorted by column. This header factors that loop into an
// *accumulator concept* (RowAccumulatorFor) with three strategies:
//
//   * DenseAccumulator      — O(ncols) value + visit-stamp arrays, reused
//     across rows via an epoch counter. Fastest for modest ncols(B);
//     impossible in the hypersparse regime.
//   * FlatHashAccumulator   — open-addressing table in flat arrays
//     (multiplicative hashing, linear probing, power-of-two capacity,
//     KEY_EMPTY sentinel — the cheetah local-hypertable idiom). O(flops)
//     memory independent of dimension; the hypersparse workhorse.
//   * SortedMergeAccumulator — append (col, val) pairs, stable-sort by
//     column at extract and fold runs left-to-right. Wins when rows are
//     tiny or nearly sorted; also the simplest reference.
//
// StdMapAccumulator wraps std::unordered_map with the same interface; it is
// the pre-refactor baseline, kept for equivalence tests and the ablation
// bench, not for production dispatch.
//
// All four fold duplicate columns with S::add in first-encounter order, so
// every strategy produces bit-identical rows (floats included) and the mxm
// driver can swap them freely.
//
// Mask fusion: MaskDesc / RowMaskProbe let the driver consult a structural
// (or complemented) mask *during* accumulation, so masked products do
// O(kept) accumulator work instead of materializing O(produced) entries and
// filtering. MxmMaskStats records kept/skipped flop counts — the planner's
// skip-counting and the BFS O(kept) assertions read them.

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "semiring/concepts.hpp"
#include "sparse/types.hpp"
#include "util/metrics.hpp"
#include "sparse/view.hpp"

namespace hyperspace::sparse {

/// How the fused kernel probes a mask row for membership.
///   * kBinary — binary-search the sorted mask row per product: O(log len),
///     no setup. Right for sparse mask rows.
///   * kBitmap — arm a per-row bitmap once (O(len)) and probe O(1) per
///     product. Wins for dense mask rows probed many times (late-BFS
///     ¬visited); impossible when the mask's column space is hypersparse-
///     huge (the bitmap would be O(ncols) bits).
///   * kMerge  — two-pointer merge of the mask row against B's sorted row:
///     probes within one B-row scan arrive in ascending column order, so a
///     cursor walks the mask row once per scan — O(len + probes) amortized,
///     no arming pass and no O(ncols) allocation, so it stays admissible in
///     hypersparse column spaces where the bitmap is not.
///   * kAuto   — bitmap iff the row is dense enough and probed enough to
///     amortize arming (see detail::use_bitmap_probe); else the merge for
///     the mid-density band (long mask rows, enough probes to amortize the
///     walk — detail::use_merge_probe); else binary search.
enum class MaskProbe : unsigned char { kAuto, kBinary, kBitmap, kMerge };

/// Structural mask descriptor: which positions of M count, whether the
/// sense is complemented, and how rows are probed.
struct MaskDesc {
  bool complement = false;
  MaskProbe probe = MaskProbe::kAuto;
};

/// Flop accounting for fused masked products. Totals are sums of per-row
/// integer counts, so they are identical for every thread count.
struct MxmMaskStats {
  std::uint64_t flops_kept = 0;     ///< products that reached an accumulator
  std::uint64_t flops_skipped = 0;  ///< products dropped by the mask probe

  std::uint64_t flops_total() const { return flops_kept + flops_skipped; }
};

/// A per-row accumulator for semiring S: begin_row() resets, reserve() sizes
/// for an expected entry count, accumulate() folds one partial product with
/// S::add in encounter order, extract_sorted() appends the row's entries in
/// ascending column order and leaves the accumulator reusable.
template <typename A, typename S>
concept RowAccumulatorFor =
    semiring::Semiring<S> &&
    requires(A a, Index j, typename S::value_type v, std::vector<Index>& cols,
             std::vector<typename S::value_type>& vals, std::size_t n) {
      a.begin_row();
      a.reserve(n);
      a.accumulate(j, v);
      a.extract_sorted(cols, vals);
    };

/// Dense scratch accumulator (the Gustavson strategy). Width fixed at
/// construction; rows are "cleared" by bumping an epoch stamp, so per-row
/// cost is O(row nnz), not O(ncols).
template <semiring::Semiring S>
class DenseAccumulator {
  using T = typename S::value_type;

 public:
  explicit DenseAccumulator(Index width)
      : acc_(static_cast<std::size_t>(width), S::zero()),
        stamp_(static_cast<std::size_t>(width), -1) {}

  void begin_row() {
    ++epoch_;
    touched_.clear();
  }
  void reserve(std::size_t) {}  // width is fixed; nothing to size per row

  void accumulate(Index j, const T& v) {
    const auto p = static_cast<std::size_t>(j);
    if (stamp_[p] != epoch_) {
      stamp_[p] = epoch_;
      acc_[p] = v;
      touched_.push_back(j);
    } else {
      acc_[p] = S::add(acc_[p], v);
    }
  }

  void extract_sorted(std::vector<Index>& cols, std::vector<T>& vals) {
    std::sort(touched_.begin(), touched_.end());
    cols.reserve(cols.size() + touched_.size());
    vals.reserve(vals.size() + touched_.size());
    for (const Index j : touched_) {
      cols.push_back(j);
      vals.push_back(std::move(acc_[static_cast<std::size_t>(j)]));
    }
  }

 private:
  std::vector<T> acc_;
  std::vector<Index> stamp_;
  std::vector<Index> touched_;
  Index epoch_ = 0;
};

/// Flat open-addressing hash accumulator. Keys and values live in parallel
/// flat arrays (no per-node allocation); probing is linear from a
/// multiplicative (Fibonacci) hash; capacity is a power of two grown at 50%
/// load. KEY_EMPTY = -1 marks free buckets — column indices are always
/// non-negative. No deletion (accumulators only insert), so no tombstones.
template <semiring::Semiring S>
class FlatHashAccumulator {
  using T = typename S::value_type;
  static constexpr Index kEmpty = -1;
  static constexpr std::size_t kMinCapacity = 16;

 public:
  void begin_row() {
    // O(occupied) sparse clear: only touched buckets are reset.
    for (const std::uint32_t b : slots_) keys_[b] = kEmpty;
    slots_.clear();
  }

  /// Size for an expected number of distinct columns; grows only (capacity
  /// persists across rows so hypersparse row sequences stop re-allocating).
  void reserve(std::size_t expected) {
    const std::size_t want =
        std::max(kMinCapacity, std::bit_ceil(expected * 2));
    if (want > keys_.size()) rehash(want);
  }

  void accumulate(Index j, const T& v) {
    if (slots_.size() * 2 >= keys_.size()) {
      rehash(std::max(kMinCapacity, keys_.size() * 2));
    }
    const std::size_t b = find_bucket(j);
    if (keys_[b] == kEmpty) {
      keys_[b] = j;
      vals_[b] = v;
      slots_.push_back(static_cast<std::uint32_t>(b));
    } else {
      vals_[b] = S::add(vals_[b], v);
    }
  }

  void extract_sorted(std::vector<Index>& cols, std::vector<T>& vals) {
    // Sort bucket indices by key so values move once, at emit time.
    std::sort(slots_.begin(), slots_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return keys_[a] < keys_[b];
              });
    cols.reserve(cols.size() + slots_.size());
    vals.reserve(vals.size() + slots_.size());
    for (const std::uint32_t b : slots_) {
      cols.push_back(keys_[b]);
      vals.push_back(std::move(vals_[b]));
    }
  }

  std::size_t capacity() const { return keys_.size(); }
  std::size_t size() const { return slots_.size(); }

 private:
  std::size_t find_bucket(Index j) const {
    const std::size_t mask = keys_.size() - 1;
    // Fibonacci hashing: multiply by 2^64/φ and keep the TOP log2(capacity)
    // bits (shift tracks capacity), so every key bit — high column bits of
    // power-of-two-strided hypersparse keys included — influences the
    // bucket. A fixed low shift would collapse such keys into one probe
    // chain.
    const auto h = static_cast<std::uint64_t>(j) * 0x9E3779B97F4A7C15ULL;
    std::size_t b = static_cast<std::size_t>(h >> shift_);
    while (keys_[b] != kEmpty && keys_[b] != j) b = (b + 1) & mask;
    return b;
  }

  void rehash(std::size_t new_capacity) {
    std::vector<Index> old_keys = std::move(keys_);
    std::vector<T> old_vals = std::move(vals_);
    std::vector<std::uint32_t> old_slots = std::move(slots_);
    keys_.assign(new_capacity, kEmpty);
    vals_.assign(new_capacity, T{});
    shift_ = 64 - std::bit_width(new_capacity - 1);
    slots_.clear();
    slots_.reserve(old_slots.size());
    for (const std::uint32_t ob : old_slots) {
      const std::size_t b = find_bucket(old_keys[ob]);
      keys_[b] = old_keys[ob];
      vals_[b] = std::move(old_vals[ob]);
      slots_.push_back(static_cast<std::uint32_t>(b));
    }
  }

  std::vector<Index> keys_;          ///< kEmpty or a column index
  std::vector<T> vals_;
  std::vector<std::uint32_t> slots_; ///< occupied bucket indices, insert order
  int shift_ = 64;                   ///< 64 - log2(capacity)
};

/// Sorted-merge accumulator: defer all folding to extract time. Appends are
/// O(1); extract stable-sorts by column (stability keeps duplicates in
/// encounter order) and folds runs left-to-right, matching the other
/// strategies bit-for-bit.
template <semiring::Semiring S>
class SortedMergeAccumulator {
  using T = typename S::value_type;

 public:
  void begin_row() { pairs_.clear(); }
  void reserve(std::size_t expected) { pairs_.reserve(expected); }

  void accumulate(Index j, const T& v) { pairs_.push_back({j, v}); }

  void extract_sorted(std::vector<Index>& cols, std::vector<T>& vals) {
    std::stable_sort(pairs_.begin(), pairs_.end(),
                     [](const Pair& a, const Pair& b) { return a.col < b.col; });
    for (std::size_t i = 0; i < pairs_.size();) {
      std::size_t k = i + 1;
      T acc = std::move(pairs_[i].val);
      while (k < pairs_.size() && pairs_[k].col == pairs_[i].col) {
        acc = S::add(acc, pairs_[k].val);
        ++k;
      }
      cols.push_back(pairs_[i].col);
      vals.push_back(std::move(acc));
      i = k;
    }
  }

 private:
  struct Pair {
    Index col;
    T val;
  };
  std::vector<Pair> pairs_;
};

/// std::unordered_map accumulator — the pre-refactor baseline. Kept so the
/// flat table has an in-tree referee (equivalence tests) and a bench
/// baseline (BENCH_spgemm.json); never selected by automatic dispatch.
template <semiring::Semiring S>
class StdMapAccumulator {
  using T = typename S::value_type;

 public:
  void begin_row() { map_.clear(); }
  void reserve(std::size_t expected) { map_.reserve(expected); }

  void accumulate(Index j, const T& v) {
    auto [it, inserted] = map_.try_emplace(j, v);
    if (!inserted) it->second = S::add(it->second, v);
  }

  void extract_sorted(std::vector<Index>& cols, std::vector<T>& vals) {
    const std::size_t base = cols.size();
    cols.reserve(base + map_.size());
    for (const auto& [j, _] : map_) cols.push_back(j);
    std::sort(cols.begin() + static_cast<std::ptrdiff_t>(base), cols.end());
    vals.reserve(vals.size() + map_.size());
    for (std::size_t i = base; i < cols.size(); ++i) {
      vals.push_back(std::move(map_.at(cols[i])));
    }
  }

 private:
  std::unordered_map<Index, T> map_;
};

namespace detail {

/// Widest mask column space the bitmap probe will allocate for: 2^24 bits
/// = 2 MiB per worker thread. Beyond this (hypersparse masks) the probe
/// falls back to binary search regardless of MaskProbe.
inline constexpr Index kMaxMaskBitmapWidth = Index{1} << 24;

/// kAuto bitmap gate, density half: rows shorter than this never arm.
inline constexpr std::size_t kMaskBitmapMinRowLen = 64;

/// Should this mask row be probed through a bitmap? Arming costs O(len)
/// (set + lazy clear); each probe then costs O(1) instead of O(log len).
/// kAuto arms when the row is dense in its column space (≥ 1/8) and the
/// row's flop count gives enough probes to amortize the arming pass.
inline bool use_bitmap_probe(MaskProbe probe, std::size_t row_len,
                             std::size_t flops_hint, Index ncols) {
  if (row_len == 0 || ncols > kMaxMaskBitmapWidth) return false;
  if (probe == MaskProbe::kBinary || probe == MaskProbe::kMerge) return false;
  if (probe == MaskProbe::kBitmap) return true;
  return row_len >= kMaskBitmapMinRowLen &&
         row_len * 8 >= static_cast<std::size_t>(ncols) &&
         flops_hint * 4 >= row_len;
}

/// kAuto merge gate: rows long enough that the per-probe log factor of the
/// binary search hurts, probed often enough to amortize one O(len) cursor
/// walk per B-row scan. Consulted only after use_bitmap_probe declined, so
/// kAuto resolves bitmap > merge > binary — the merge owns the mid-density
/// band (too sparse in its column space to arm a bitmap, too long to
/// binary-search per product) and the hypersparse column spaces where the
/// bitmap is inadmissible outright.
inline bool use_merge_probe(MaskProbe probe, std::size_t row_len,
                            std::size_t flops_hint) {
  if (row_len == 0) return false;
  if (probe == MaskProbe::kMerge) return true;
  if (probe != MaskProbe::kAuto) return false;
  return row_len >= kMaskBitmapMinRowLen && flops_hint * 4 >= row_len;
}

/// Per-worker bitmap scratch for the mask probe. Armed lazily per mask row;
/// the previous row's bits are cleared on the next arm (O(previous len)),
/// so total extra work is O(Σ armed row lengths), never O(ncols · rows).
struct MaskBitmapScratch {
  std::vector<std::uint64_t> bits;
  std::span<const Index> armed;  ///< columns currently set

  const std::uint64_t* arm(std::span<const Index> cols, Index ncols) {
    for (const Index j : armed) {
      bits[static_cast<std::size_t>(j >> 6)] &=
          ~(std::uint64_t{1} << (j & 63));
    }
    const auto words = static_cast<std::size_t>((ncols + 63) >> 6);
    if (bits.size() < words) bits.resize(words, 0);
    for (const Index j : cols) {
      bits[static_cast<std::size_t>(j >> 6)] |= std::uint64_t{1} << (j & 63);
    }
    armed = cols;
    return bits.data();
  }
};

/// One resolved mask row: a sorted column span, the sense, and (optionally)
/// an armed bitmap for O(1) probes. Shared by every masked policy. A probe
/// beyond the armed bitmap's width (a mask narrower than a base whose key
/// space grew after the mask was built) misses structurally (hit = false).
struct MaskRow {
  std::span<const Index> cols;
  bool complement = false;
  const std::uint64_t* bits = nullptr;
  Index bit_limit = 0;  ///< armed bitmap width (meaningful iff bits != null)
  mutable bool merge = false;  ///< two-pointer merge probe (mid-density)
  mutable std::size_t cursor = 0;  ///< merge probe: first mask col ≥ last c
  mutable std::size_t steps = 0;   ///< merge probe: cursor work spent so far
  mutable std::size_t probes = 0;  ///< merge probe: probes answered so far
  mutable Index last_c = -1;       ///< merge probe: previous probed column

  bool all_blocked() const { return !complement && cols.empty(); }
  bool all_allowed() const { return complement && cols.empty(); }
  bool allowed(Index c) const {
    bool hit;
    if (bits) {
      hit = c < bit_limit &&
            ((bits[static_cast<std::size_t>(c >> 6)] >> (c & 63)) & 1) != 0;
    } else if (merge) {
      // Probes within one B-row scan come in ascending column order, so
      // the cursor only moves forward; a descending probe marks a new
      // scan (next A-entry's B row) and rewinds it. On the sorted scans
      // the SpGEMM driver issues the total cursor work per mask row is
      // O(len + probes) — but many scans that each land deep in the mask
      // row would re-walk it per rewind, so once the cursor work stops
      // amortizing against what binary search would have cost (~log per
      // probe) the row retires to binary search for its remaining probes.
      // Answers are identical either way; the cap just bounds the worst
      // case, so kAuto can never lose more than a constant factor.
      if (c < last_c) cursor = 0;
      last_c = c;
      const std::size_t start = cursor;
      while (cursor < cols.size() && cols[cursor] < c) ++cursor;
      hit = cursor < cols.size() && cols[cursor] == c;
      steps += cursor - start;
      ++probes;
      if (steps > probes * 16 + 64) merge = false;
    } else {
      hit = std::binary_search(cols.begin(), cols.end(), c);
    }
    return hit != complement;
  }
};

/// Resolve row r of mask view `m` under `desc`, arming the bitmap probe
/// when the desc/auto rule says so. An absent mask row blocks everything
/// (plain sense) or allows everything (complement sense) — the driver's
/// whole-row fast paths.
template <typename U>
MaskRow mask_row_lookup(const SparseView<U>& m, Index r, MaskDesc desc,
                        std::size_t flops_hint, MaskBitmapScratch& scratch) {
  const auto it = std::lower_bound(m.row_ids.begin(), m.row_ids.end(), r);
  if (it == m.row_ids.end() || *it != r) {
    return {{}, desc.complement, nullptr, 0};
  }
  const auto ri = static_cast<std::size_t>(it - m.row_ids.begin());
  const auto cols = m.row_cols(ri);
  const std::uint64_t* bits = nullptr;
  if (use_bitmap_probe(desc.probe, cols.size(), flops_hint, m.ncols)) {
    bits = scratch.arm(cols, m.ncols);
  }
  const bool merge =
      !bits && use_merge_probe(desc.probe, cols.size(), flops_hint);
  if (util::metrics::enabled()) {
    // Probe-strategy mix (bitmap / merge / binary), one count per mask row
    // armed. Gate decisions depend only on shape, never on timing, so the
    // mix is thread-count invariant.
    namespace hm = util::metrics;
    static auto& bitmap_rows = hm::Registry::instance().counter(
        "mxm.probe.bitmap_rows", hm::Stability::kInvariant);
    static auto& merge_rows = hm::Registry::instance().counter(
        "mxm.probe.merge_rows", hm::Stability::kInvariant);
    static auto& binary_rows = hm::Registry::instance().counter(
        "mxm.probe.binary_rows", hm::Stability::kInvariant);
    (bits != nullptr ? bitmap_rows : merge ? merge_rows : binary_rows).inc();
  }
  return {cols, desc.complement, bits, bits ? m.ncols : Index{0}, merge};
}

/// No-mask policy: every column is allowed; compiles out of the driver.
struct NoMask {
  static constexpr bool kMasked = false;
  struct Scratch {};
  struct Row {
    bool all_blocked() const { return false; }
    bool all_allowed() const { return true; }
    bool allowed(Index) const { return true; }
  };
  Row row(Index, std::size_t, Scratch&) const { return {}; }
};

/// Structural mask over a sparse view: one MaskDesc governs every row.
template <typename U>
struct StructuralMask {
  static constexpr bool kMasked = true;
  SparseView<U> m;
  MaskDesc desc;

  using Scratch = MaskBitmapScratch;
  using Row = MaskRow;

  Row row(Index r, std::size_t flops_hint, Scratch& s) const {
    return mask_row_lookup(m, r, desc, flops_hint, s);
  }
};

/// No-carry policy: accumulators start empty; compiles out of the driver.
struct NoCarry {
  static constexpr bool kCarry = false;
  struct Row {
    std::span<const Index> cols;
    bool empty() const { return true; }
  };
  Row row(Index) const { return {}; }
};

/// Carry (seed) policy — the shard-chain gather's fold-continuation hook.
/// Before any product of stacked row r is accumulated, the driver seeds the
/// row's accumulator with the carry row's entries: the carry is a partial
/// result from an earlier launch (an earlier shard's fold over a prefix of
/// the inner dimension), and seeding it as the accumulator's initial values
/// makes the current launch CONTINUE that flat left fold — so chaining
/// launches over an ordered partition of the inner dimension is
/// bit-identical to one unsharded launch, floats included. Carry entries
/// are seeds, not products: they are never mask-probed (they were produced
/// under the same mask) and add no flops to MxmMaskStats.
///
/// Rows are partitioned into K contiguous query blocks by `row_offsets`
/// (the serving batcher's layout); block q's rows seed from its own carry
/// view, addressed in the query's local row space. A default (empty) view
/// means no carry for that block.
template <typename T>
struct MultiCarry {
  static constexpr bool kCarry = true;
  std::span<const SparseView<T>> views;  ///< size K, one per query block
  std::span<const Index> row_offsets;    ///< size K+1, ascending

  struct Row {
    std::span<const Index> cols;
    std::span<const T> vals;
    bool empty() const { return cols.empty(); }
  };

  Row row(Index r) const {
    const auto q = static_cast<std::size_t>(
        std::upper_bound(row_offsets.begin(), row_offsets.end(), r) -
        row_offsets.begin() - 1);
    const auto& v = views[q];
    const Index local = r - row_offsets[q];
    const auto it = std::lower_bound(v.row_ids.begin(), v.row_ids.end(), local);
    if (it == v.row_ids.end() || *it != local) return {};
    const auto ri = static_cast<std::size_t>(it - v.row_ids.begin());
    return {v.row_cols(ri), v.row_vals(ri)};
  }
};

/// Batched (serving) mask: rows of the stacked operand are partitioned
/// into K contiguous query blocks by `row_offsets` (size K+1), and block
/// q's rows probe query q's OWN mask view under its own MaskDesc,
/// addressed in the query's local row space (stacked row r ↦ local row
/// r − row_offsets[q]). Unmasked queries pass a default (empty) view with
/// a complement desc — every row absent ⇒ all allowed — so masked,
/// complement-masked, and unmasked queries coalesce into ONE fused kernel
/// launch with no mask entry ever copied.
template <typename U>
struct MultiMask {
  static constexpr bool kMasked = true;
  std::span<const SparseView<U>> views;  ///< size K, one per query block
  std::span<const Index> row_offsets;    ///< size K+1, ascending
  std::span<const MaskDesc> descs;       ///< size K

  using Scratch = MaskBitmapScratch;
  using Row = MaskRow;

  Row row(Index r, std::size_t flops_hint, Scratch& s) const {
    const auto q = static_cast<std::size_t>(
        std::upper_bound(row_offsets.begin(), row_offsets.end(), r) -
        row_offsets.begin() - 1);
    return mask_row_lookup(views[q], r - row_offsets[q], descs[q],
                           flops_hint, s);
  }
};

}  // namespace detail

}  // namespace hyperspace::sparse
