#ifndef FGQ_EVAL_DISEQ_H_
#define FGQ_EVAL_DISEQ_H_

#include <memory>
#include <vector>

#include "fgq/db/database.h"
#include "fgq/eval/enumerate.h"
#include "fgq/query/cq.h"
#include "fgq/util/status.h"

/// \file diseq.h
/// Acyclic conjunctive queries with disequalities, ACQ_!= (Section 4.3).
///
/// Unlike order comparisons (which make acyclic queries W[1]-hard,
/// Theorem 4.15), disequalities only carve *exceptions* out of large
/// candidate sets, and the paper bounds those exceptions combinatorially
/// through covers of tables (Definitions 4.16-4.19): a table (E, f) of k
/// unary functions has at most k! minimal covers and a representative set
/// of size O(k!). This module implements that machinery verbatim — it is
/// directly testable against Example 4.19 — and uses its simplest
/// instantiation for evaluation: when a quantified variable z carries k
/// disequalities z != u_j, any k+1 distinct witnesses for z are a
/// representative set, because at most k of them can be forbidden.
///
/// EvaluateAcqNeq / MakeNeqEnumerator eliminate each constrained
/// quantified variable by storing up to k+1 witnesses per join key during
/// the (linear) preprocessing, then enumerate the remaining free-connex
/// query with constant delay, checking witnesses and free-free
/// disequalities in query-sized time per answer (Theorem 4.20's upper
/// bound). The fast path requires each constrained quantified variable to
/// occur in a single atom whose other variables are free, and each
/// disequality to touch at most one quantified variable; other shapes fall
/// back to the backtracking oracle (EvaluateAcqNeq) or report Unsupported
/// (MakeNeqEnumerator).

namespace fgq {

/// The blank symbol of covers, written "square cup" in the paper.
inline constexpr Value kBlank = INT64_MIN;

/// A table (E, f): |E| rows, each listing the values f_1(x)..f_k(x).
struct FunctionTable {
  size_t k = 0;
  std::vector<Tuple> rows;

  /// Distinct values appearing in column i.
  std::vector<Value> ColumnValues(size_t i) const;
};

/// True if `cover` (length k, kBlank allowed) covers the table: every row
/// agrees with the cover on at least one non-blank coordinate
/// (Definition 4.16).
bool CoversTable(const FunctionTable& table, const Tuple& cover);

/// True if c1 is more general than (or equal to) c2: componentwise, either
/// equal or c1 has a blank (Definition 4.17).
bool MoreGeneral(const Tuple& c1, const Tuple& c2);

/// All minimal covers of the table (Definition 4.17); at most k! of them.
std::vector<Tuple> MinimalCovers(const FunctionTable& table);

/// A representative set: row indices E' <= E with covers(E') = covers(E)
/// and |E'| = O(k!) (Definition and remark after Example 4.19).
std::vector<size_t> RepresentativeSet(const FunctionTable& table);

/// Every cover over the alphabet `range` (union of column values) plus
/// blank — brute force, for property tests only.
std::vector<Tuple> AllCoversBruteForce(const FunctionTable& table,
                                       const std::vector<Value>& range);

/// Evaluates an acyclic query whose comparisons are all disequalities.
/// Uses the witness fast path when the query's shape permits, otherwise
/// the backtracking oracle. Polls `ctx`'s cancel token and fails with
/// Cancelled or DeadlineExceeded once it trips.
Result<Relation> EvaluateAcqNeq(const ConjunctiveQuery& q, const Database& db,
                                const ExecContext& ctx = ExecContext());

/// Constant-delay enumeration of a free-connex ACQ_!= (Theorem 4.20).
/// The preprocessing polls `ctx`'s cancel token.
Result<std::unique_ptr<AnswerEnumerator>> MakeNeqEnumerator(
    const ConjunctiveQuery& q, const Database& db,
    const ExecContext& ctx = ExecContext());

}  // namespace fgq

#endif  // FGQ_EVAL_DISEQ_H_
