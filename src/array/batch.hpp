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
// belong to the planner's per-query fallback (db::planned_batch). Every
// call serves one base array: mtimes_batched is one serve::run_batch
// launch, and a caller with several bases makes one call per base.

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

/// Execute every query against `base` as one coalesced launch. All queries
/// must be batchable() — an unbatchable one throws std::invalid_argument
/// before anything runs; results come back in submission order, each
/// entry-identical to mtimes / mtimes_masked run alone. The span-of-
/// pointers overload is the core (callers that route a larger query list —
/// db::planned_batch — coalesce a subset without copying any operand).
template <semiring::Semiring S>
std::vector<AssocArray<S>> mtimes_batched(
    const AssocArray<S>& base,
    std::span<const BatchQuery<S>* const> queries,
    serve::ServeStats* stats = nullptr) {
  const KeySet& rows = base.row_keys();
  std::vector<serve::Query<S>> qs;
  qs.reserve(queries.size());
  for (const auto* q : queries) {
    // The realignments per-query mtimes / mtimes_masked would perform, in
    // the base's coordinates.
    if (key_union(q->lhs.col_keys(), rows) != rows) {
      throw std::invalid_argument(
          "array batch: query inner keys outside base row keys");
    }
    auto& sq = qs.emplace_back();
    sq.lhs = q->lhs.realign(q->lhs.row_keys(), rows).matrix();
    if (q->mask) {
      sq.kind = serve::QueryKind::kMtimesMasked;
      sq.mask = q->mask->realign(q->lhs.row_keys(), base.col_keys()).matrix();
      sq.desc = q->desc;
    }
  }
  auto rs = serve::run_batch<S>(base.matrix(), qs, sparse::MxmStrategy::kAuto,
                                stats);
  std::vector<AssocArray<S>> out;
  out.reserve(rs.size());
  for (std::size_t i = 0; i < rs.size(); ++i) {
    out.emplace_back(queries[i]->lhs.row_keys(), base.col_keys(),
                     std::move(rs[i]));
  }
  return out;
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

}  // namespace hyperspace::array
