#ifndef FGQ_COUNT_ACQ_COUNT_H_
#define FGQ_COUNT_ACQ_COUNT_H_

#include <functional>
#include <map>
#include <set>
#include <unordered_map>
#include <vector>

#include "fgq/count/semiring.h"
#include "fgq/db/database.h"
#include "fgq/eval/prepared.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/cq.h"
#include "fgq/util/cancel.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/hash.h"
#include "fgq/util/status.h"

/// \file acq_count.h
/// Counting and weighted counting of ACQ answers (Section 4.4), as
/// instances of one sum-product DP over a commutative semiring.
///
/// * SemiringSumAcq0 — Theorem 4.21: for quantifier-free acyclic
///   queries, a single bottom-up dynamic program over the join tree sums
///   the product-of-weights of all answers. Each variable is "owned" by
///   its highest join-tree node so its weight is multiplied exactly once;
///   per-child aggregate maps make the pass O(||phi|| * ||D||) (within the
///   paper's O(||phi|| * ||D||^2) bound).
/// * SemiringSumAcq / CountAcq — Theorem 4.28: for quantified acyclic
///   queries, each S-component is materialized onto its free variables
///   (cost ||D||^O(star size)) and the resulting quantifier-free acyclic
///   query runs through the DP. Star size 1 keeps the whole pipeline
///   linear; unbounded star size is #W[1]-hard (the lower bound is
///   exercised by the perfect-matching reduction in matchings.h).

namespace fgq {

/// Column positions in `node` of the variables shared with `parent`, in
/// canonical (name-sorted) order. Both sides of every aggregate/probe key
/// in the counting DP use this order so the keys align.
std::vector<size_t> SharedColumnOrder(const PreparedAtom& node,
                                      const PreparedAtom& parent);

/// Rows the sum-product DP scans between two polls of its cancel token.
inline constexpr size_t kDpPollRows = 1024;

/// Sum-product over an arbitrary commutative semiring instance for
/// quantifier-free acyclic conjunctive queries (Fan–Koutris–Zhao style;
/// see semiring.h for the semantics contract): each variable is owned by
/// its highest join-tree node and weighted exactly once (at its first
/// column there, so R(x,x) weighs x once), per-child aggregate maps keep
/// the pass O(||phi|| * ||D||). Polls `cancel` every kDpPollRows rows.
template <typename S>
Result<typename S::ValueType> SemiringSumAcq0(
    const ConjunctiveQuery& q, const Database& db, const S& s,
    const CancelToken& cancel = CancelToken()) {
  using V = typename S::ValueType;
  FGQ_RETURN_NOT_OK(q.Validate());
  if (q.HasNegation() || !q.comparisons().empty()) {
    return Status::Unsupported("sum-product DP handles plain ACQ");
  }
  if (!q.ExistentialVariables().empty()) {
    return Status::InvalidArgument(
        "SemiringSumAcq0 requires a quantifier-free query; use "
        "SemiringSumAcq");
  }
  Hypergraph hg = Hypergraph::FromQuery(q);
  GyoResult gyo = GyoReduce(hg);
  if (!gyo.acyclic) {
    return Status::InvalidArgument("query is not acyclic: " + q.ToString());
  }
  FGQ_ASSIGN_OR_RETURN(std::vector<PreparedAtom> atoms, PrepareAtoms(q, db));

  std::vector<int> order = gyo.tree.TopDownOrder();
  std::vector<size_t> depth(atoms.size(), 0);
  for (int e : order) {
    if (gyo.tree.parent[e] >= 0) depth[e] = depth[gyo.tree.parent[e]] + 1;
  }
  std::map<std::string, int> owner;
  for (size_t e = 0; e < atoms.size(); ++e) {
    for (const std::string& v : atoms[e].vars) {
      auto it = owner.find(v);
      if (it == owner.end() || depth[e] < depth[it->second]) {
        owner[v] = static_cast<int>(e);
      }
    }
  }

  std::vector<std::unordered_map<Tuple, V, VecHash>> child_sums(atoms.size());
  for (int e : gyo.tree.BottomUpOrder()) {
    const PreparedAtom& a = atoms[e];
    std::vector<size_t> conn_cols;
    int p = gyo.tree.parent[e];
    if (p >= 0) conn_cols = SharedColumnOrder(a, atoms[p]);
    // Owned columns: the *first* column of each variable this node owns.
    // (VarIndex returns the first occurrence, so a repeated variable in
    // one atom — R(x,x) — contributes its weight once, as the semantics
    // in semiring.h requires.)
    std::vector<size_t> owned_cols;
    for (size_t c = 0; c < a.vars.size(); ++c) {
      if (owner[a.vars[c]] == static_cast<int>(e) &&
          static_cast<size_t>(a.VarIndex(a.vars[c])) == c) {
        owned_cols.push_back(c);
      }
    }
    struct ChildConn {
      int child;
      std::vector<size_t> cols;  // Columns of *this* node.
    };
    std::vector<ChildConn> child_conns;
    for (int c : gyo.tree.children[e]) {
      ChildConn cc;
      cc.child = c;
      std::vector<size_t> child_side = SharedColumnOrder(atoms[c], a);
      for (size_t j : child_side) {
        cc.cols.push_back(static_cast<size_t>(a.VarIndex(atoms[c].vars[j])));
      }
      child_conns.push_back(std::move(cc));
    }
    auto& sums = child_sums[e];
    Tuple key(conn_cols.size());
    Tuple ckey;
    V total_root = s.Zero();
    std::vector<const Value*> cols(a.rel.arity());
    for (size_t c = 0; c < a.rel.arity(); ++c) cols[c] = a.rel.Column(c);
    for (size_t r = 0; r < a.rel.NumTuples(); ++r) {
      if (r % kDpPollRows == 0) {
        FGQ_RETURN_NOT_OK(cancel.Check("sum-product DP"));
      }
      V w = s.One();
      for (size_t c : owned_cols) w = s.Times(w, s.Weight(cols[c][r]));
      bool dead = false;
      for (const ChildConn& cc : child_conns) {
        ckey.resize(cc.cols.size());
        for (size_t j = 0; j < cc.cols.size(); ++j) {
          ckey[j] = cols[cc.cols[j]][r];
        }
        auto it = child_sums[cc.child].find(ckey);
        if (it == child_sums[cc.child].end()) {
          dead = true;
          break;
        }
        w = s.Times(w, it->second);
      }
      if (dead) continue;
      if (p < 0) {
        total_root = s.Plus(total_root, w);
      } else {
        for (size_t j = 0; j < conn_cols.size(); ++j) {
          key[j] = cols[conn_cols[j]][r];
        }
        auto [it, inserted] = sums.try_emplace(key, w);
        if (!inserted) it->second = s.Plus(it->second, w);
      }
    }
    if (p < 0) {
      return total_root;
    }
    for (const ChildConn& cc : child_conns) {
      child_sums[cc.child] = {};
    }
  }
  return Status::Internal("join tree had no root");
}

/// Rewrites a quantified ACQ into an equivalent quantifier-free ACQ over
/// its head variables (the S-component materialization of Theorem 4.28).
/// Fresh component relations are added to `scratch`; evaluate the
/// returned query against MergeAcqViews(db, *scratch). Shared by the
/// counting and semiring sum-product pipelines.
Result<ConjunctiveQuery> MaterializeAcqComponents(
    const ConjunctiveQuery& q, const Database& db, Database* scratch,
    const ExecContext& ctx = ExecContext());

/// A view containing both the original and the materialized relations.
Database MergeAcqViews(const Database& db, const Database& scratch);

/// Sum-product for any acyclic conjunctive query under the registered
/// semiring `id` (quantified queries go through the S-component
/// pipeline first). Honours ctx's cancel token in both stages.
Result<SemiringValue> SemiringSumAcq(const ConjunctiveQuery& q,
                                     const Database& db, SemiringId id,
                                     const ExecContext& ctx = ExecContext());

/// Folds a materialized answer relation into the semiring aggregate:
/// ⊕ over rows of (⊗ over first-occurrence head columns of the weight).
/// This is the reference semantics the DP must agree with — the fuzz
/// differ folds the brute-force evaluator's answers through this exact
/// function. `answers` columns must be in q.head() order.
Result<SemiringValue> FoldAnswersSemiring(const ConjunctiveQuery& q,
                                          const Relation& answers,
                                          SemiringId id);

/// Exact answer counting for any acyclic conjunctive query (Theorem
/// 4.28): SemiringSumAcq under kCounting. Linear for
/// quantifier-star-size 1, ||D||^O(s) in general.
Result<BigInt> CountAcq(const ConjunctiveQuery& q, const Database& db);

/// Weighted counting over the reals for acyclic queries (Section 4.4's
/// #F-ACQ): the DP under (+, ×) on doubles, an answer weighing the product
/// of `weight` over its distinct head variables.
Result<double> WeightedCountAcq(const ConjunctiveQuery& q, const Database& db,
                                const std::function<double(Value)>& weight);

}  // namespace fgq

#endif  // FGQ_COUNT_ACQ_COUNT_H_
