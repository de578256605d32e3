#pragma once
// Batch-aware associative-array façade over serve/ — coalesce concurrent
// key-space queries against one shared base array.
//
// Array-level batching carries one obligation the matrix layer doesn't:
// mtimes aligns operand inner key spaces by set-union, so two queries only
// share a stacked base operand when that alignment IS the base's own row
// key space. batchable() is exactly that condition — col keys of the query
// within the base's row keys. mtimes_batched realigns every operand the
// same way per-query mtimes/mtimes_masked would, so batched results are
// entry-identical to sequential execution; queries that fail the condition
// belong to the planner's per-query fallback (db::planned_batch).

#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "array/assoc_array.hpp"
#include "serve/batch.hpp"

namespace hyperspace::array {

/// One pending array-level query against a shared base: lhs ⊕.⊗ base,
/// optionally under a fused output mask.
template <semiring::Semiring S>
struct BatchQuery {
  AssocArray<S> lhs;
  std::optional<AssocArray<S>> mask;
  sparse::MaskDesc desc{};
};

/// Can this query join a coalesced batch against `base`? True iff the
/// mtimes inner alignment key_union(col_keys(lhs), row_keys(base)) is the
/// base's own row key space — i.e. col_keys(lhs) ⊆ row_keys(base).
template <semiring::Semiring S>
bool batchable(const AssocArray<S>& base, const BatchQuery<S>& q) {
  return key_union(q.lhs.col_keys(), base.row_keys()) == base.row_keys();
}

namespace detail {

/// The one BatchQuery → serve::Query realignment, shared by every
/// array-level batch path (mtimes_batched, mtimes_batched_multi,
/// ShardedServer::submit): the realignments per-query mtimes /
/// mtimes_masked would perform, in the coordinates of a base with key
/// spaces (rows, cols). Throws unless the query is batchable against
/// those row keys.
template <semiring::Semiring S>
serve::Query<S> realign_query(const KeySet& rows, const KeySet& cols,
                              const BatchQuery<S>& q) {
  if (key_union(q.lhs.col_keys(), rows) != rows) {
    throw std::invalid_argument(
        "array batch: query inner keys outside base row keys");
  }
  serve::Query<S> sq;
  sq.lhs = q.lhs.realign(q.lhs.row_keys(), rows).matrix();
  if (q.mask) {
    sq.kind = serve::QueryKind::kMtimesMasked;
    sq.mask = q.mask->realign(q.lhs.row_keys(), cols).matrix();
    sq.desc = q.desc;
  }
  return sq;
}

/// Realign every query (queries[i] against *bases[ids[i]]), run them
/// through serve::run_batch_multi — one coalesced launch per base touched
/// — and label each result with its lhs row keys and its base's col keys.
template <semiring::Semiring S>
std::vector<AssocArray<S>> run_realigned(
    std::span<const AssocArray<S>* const> bases,
    std::span<const BatchQuery<S>* const> queries,
    std::span<const std::size_t> ids, serve::ServeStats* stats) {
  using T = typename S::value_type;
  std::vector<serve::Query<S>> qs;
  qs.reserve(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (ids[i] >= bases.size() || bases[ids[i]] == nullptr) {
      throw std::invalid_argument("array batch: bad base index");
    }
    const auto& base = *bases[ids[i]];
    qs.push_back(realign_query(base.row_keys(), base.col_keys(), *queries[i]));
  }
  std::vector<const sparse::Matrix<T>*> mats;
  mats.reserve(bases.size());
  for (const auto* b : bases) mats.push_back(b ? &b->matrix() : nullptr);
  auto rs = serve::run_batch_multi<S>(mats, qs, ids,
                                      sparse::MxmStrategy::kAuto, stats);
  std::vector<AssocArray<S>> out;
  out.reserve(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    out.emplace_back(queries[i]->lhs.row_keys(), bases[ids[i]]->col_keys(),
                     std::move(rs[i]));
  }
  return out;
}

}  // namespace detail

/// Execute every query against `base` as one coalesced launch. All queries
/// must be batchable(); results come back in submission order, each
/// entry-identical to mtimes / mtimes_masked run alone. The span-of-
/// pointers overload is the core (callers that route a larger query list —
/// db::planned_batch — coalesce a subset without copying any operand).
template <semiring::Semiring S>
std::vector<AssocArray<S>> mtimes_batched(
    const AssocArray<S>& base,
    std::span<const BatchQuery<S>* const> queries,
    serve::ServeStats* stats = nullptr) {
  const AssocArray<S>* b = &base;
  const std::vector<std::size_t> ids(queries.size(), 0);
  return detail::run_realigned<S>(std::span(&b, 1), queries, ids, stats);
}

template <semiring::Semiring S>
std::vector<AssocArray<S>> mtimes_batched(
    const AssocArray<S>& base, const std::vector<BatchQuery<S>>& queries,
    serve::ServeStats* stats = nullptr) {
  std::vector<const BatchQuery<S>*> ptrs;
  ptrs.reserve(queries.size());
  for (const auto& q : queries) ptrs.push_back(&q);
  return mtimes_batched<S>(base, ptrs, stats);
}

/// A BatchQuery routed at one of several base arrays (multi-base serving).
template <semiring::Semiring S>
struct MultiBatchQuery {
  std::size_t base = 0;  ///< index into the bases list
  BatchQuery<S> q;
};

/// Execute queries against SEVERAL bases: each base's queries coalesce
/// into one launch (serve::run_batch_multi groups them per base). Every
/// query must be batchable() against ITS base; each result is
/// entry-identical to mtimes / mtimes_masked against that base alone.
template <semiring::Semiring S>
std::vector<AssocArray<S>> mtimes_batched_multi(
    std::span<const AssocArray<S>* const> bases,
    std::span<const MultiBatchQuery<S>* const> queries,
    serve::ServeStats* stats = nullptr) {
  std::vector<const BatchQuery<S>*> qs;
  std::vector<std::size_t> ids;
  qs.reserve(queries.size());
  ids.reserve(queries.size());
  for (const auto* mq : queries) {
    qs.push_back(&mq->q);
    ids.push_back(mq->base);
  }
  return detail::run_realigned<S>(bases, qs, ids, stats);
}

template <semiring::Semiring S>
std::vector<AssocArray<S>> mtimes_batched_multi(
    const std::vector<const AssocArray<S>*>& bases,
    const std::vector<MultiBatchQuery<S>>& queries,
    serve::ServeStats* stats = nullptr) {
  std::vector<const MultiBatchQuery<S>*> ptrs;
  ptrs.reserve(queries.size());
  for (const auto& q : queries) ptrs.push_back(&q);
  return mtimes_batched_multi<S>(
      std::span<const AssocArray<S>* const>(bases.data(), bases.size()),
      std::span<const MultiBatchQuery<S>* const>(ptrs.data(), ptrs.size()),
      stats);
}

}  // namespace hyperspace::array
