#include "fgq/count/acq_count.h"

#include <algorithm>

#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/star_size.h"

namespace fgq {

std::vector<size_t> SharedColumnOrder(const PreparedAtom& node,
                                      const PreparedAtom& parent) {
  std::vector<std::string> shared;
  for (const std::string& v : node.vars) {
    if (parent.VarIndex(v) >= 0) shared.push_back(v);
  }
  std::sort(shared.begin(), shared.end());
  std::vector<size_t> cols;
  for (const std::string& v : shared) {
    cols.push_back(static_cast<size_t>(node.VarIndex(v)));
  }
  return cols;
}

/// Rewrites a quantified ACQ into an equivalent quantifier-free ACQ over
/// an enriched database (the S-component materialization of Theorem
/// 4.28). Returns the new query; the new relations are added to
/// `scratch`.
Result<ConjunctiveQuery> MaterializeAcqComponents(const ConjunctiveQuery& q,
                                                  const Database& db,
                                                  Database* scratch,
                                                  const ExecContext& ctx) {
  Hypergraph hg = Hypergraph::FromQuery(q);
  std::vector<int> s_ids;
  for (const std::string& v : q.head()) {
    int id = hg.FindVertex(v);
    if (id >= 0) s_ids.push_back(id);
  }
  std::vector<SComponent> comps = DecomposeSComponents(hg, s_ids);

  ConjunctiveQuery out(q.name(), q.head(), {});
  // Atoms fully inside S pass through unchanged.
  std::vector<bool> in_component(q.atoms().size(), false);
  for (const SComponent& comp : comps) {
    for (int e : comp.edges) {
      int atom_idx = hg.EdgeLabel(e);
      in_component[atom_idx] = true;
    }
  }
  for (size_t i = 0; i < q.atoms().size(); ++i) {
    if (!in_component[i]) out.AddAtom(q.atoms()[i]);
  }

  // Each component becomes one fresh atom over its free variables, whose
  // relation is the component subquery's answer set.
  int comp_id = 0;
  for (const SComponent& comp : comps) {
    std::vector<std::string> comp_head;
    for (int v : comp.s_vertices) comp_head.push_back(hg.VertexName(v));
    ConjunctiveQuery sub("comp" + std::to_string(comp_id), comp_head, {});
    for (int e : comp.edges) {
      sub.AddAtom(q.atoms()[hg.EdgeLabel(e)]);
    }
    FGQ_ASSIGN_OR_RETURN(Relation res, EvaluateYannakakis(sub, db, ctx));
    std::string rel_name = "__" + q.name() + "_comp" + std::to_string(comp_id);
    res.set_name(rel_name);
    scratch->PutRelation(std::move(res));
    Atom a;
    a.relation = rel_name;
    for (const std::string& v : comp_head) a.args.push_back(Term::Var(v));
    // A component with no free variable is a Boolean condition: keep it as
    // a nullary atom (empty => whole count is zero).
    out.AddAtom(std::move(a));
    ++comp_id;
  }
  return out;
}

/// Merges `db` and `scratch` views: counting runs against a database that
/// contains both the original and the materialized relations.
Database MergeAcqViews(const Database& db, const Database& scratch) {
  Database merged;
  for (const auto& [name, rel] : db.relations()) merged.PutRelationShared(rel);
  for (const auto& [name, rel] : scratch.relations()) {
    merged.PutRelationShared(rel);
  }
  return merged;
}

namespace {

/// The DP for any acyclic `q` under instance `s`: directly when
/// quantifier-free, else over the S-component rewrite.
template <typename S>
Result<typename S::ValueType> SumAcq(const ConjunctiveQuery& q,
                                     const Database& db, const S& s,
                                     const ExecContext& ctx) {
  if (q.ExistentialVariables().empty()) {
    return SemiringSumAcq0(q, db, s, ctx.cancel());
  }
  Database scratch;
  FGQ_ASSIGN_OR_RETURN(ConjunctiveQuery qf,
                       MaterializeAcqComponents(q, db, &scratch, ctx));
  Database merged = MergeAcqViews(db, scratch);
  if (!IsAcyclicQuery(qf)) {
    return Status::Internal(
        "S-component materialization produced a cyclic query for: " +
        q.ToString());
  }
  return SemiringSumAcq0(qf, merged, s, ctx.cancel());
}

/// SumAcq for one registered instance, wrapping the carrier into a
/// SemiringValue.
template <typename S, typename Wrap>
Result<SemiringValue> RunSemiringDp(const ConjunctiveQuery& q,
                                    const Database& db, const S& s,
                                    const ExecContext& ctx, Wrap wrap) {
  FGQ_ASSIGN_OR_RETURN(typename S::ValueType v, SumAcq(q, db, s, ctx));
  return wrap(std::move(v));
}

/// (+, ×) over doubles with caller-supplied element weights: the
/// real-valued #F-ACQ instance behind WeightedCountAcq.
struct RealSemiring {
  using ValueType = double;
  const std::function<double(Value)>& weight;
  double Zero() const { return 0.0; }
  double One() const { return 1.0; }
  double Plus(double a, double b) const { return a + b; }
  double Times(double a, double b) const { return a * b; }
  double Weight(Value v) const { return weight(v); }
};

/// First-occurrence head positions: the columns of the answer relation
/// whose variable appears for the first time at that head index.
std::vector<size_t> FirstOccurrenceHeadCols(
    const std::vector<std::string>& head) {
  std::vector<size_t> cols;
  for (size_t i = 0; i < head.size(); ++i) {
    bool seen = false;
    for (size_t j = 0; j < i; ++j) {
      if (head[j] == head[i]) {
        seen = true;
        break;
      }
    }
    if (!seen) cols.push_back(i);
  }
  return cols;
}

template <typename S, typename Wrap>
SemiringValue FoldRows(const Relation& answers, const S& s,
                       const std::vector<size_t>& cols, Wrap wrap) {
  typename S::ValueType acc = s.Zero();
  std::vector<const Value*> bases(answers.arity());
  for (size_t c = 0; c < answers.arity(); ++c) bases[c] = answers.Column(c);
  for (size_t r = 0; r < answers.NumTuples(); ++r) {
    typename S::ValueType w = s.One();
    for (size_t c : cols) w = s.Times(w, s.Weight(bases[c][r]));
    acc = s.Plus(acc, w);
  }
  return wrap(std::move(acc));
}

}  // namespace

Result<SemiringValue> SemiringSumAcq(const ConjunctiveQuery& q,
                                     const Database& db, SemiringId id,
                                     const ExecContext& ctx) {
  FGQ_RETURN_NOT_OK(q.Validate());
  if (q.HasNegation() || !q.comparisons().empty()) {
    return Status::Unsupported("SemiringSumAcq handles plain ACQ");
  }
  if (!IsAcyclicQuery(q)) {
    return Status::InvalidArgument("query is not acyclic: " + q.ToString());
  }
  switch (id) {
    case SemiringId::kCounting:
      return RunSemiringDp(q, db, CountingSemiring{}, ctx,
                           [](BigInt v) { return SemiringValue::Counting(std::move(v)); });
    case SemiringId::kBoolean:
      return RunSemiringDp(q, db, BooleanSemiring{}, ctx,
                           [](bool v) { return SemiringValue::Boolean(v); });
    case SemiringId::kMinPlus:
      return RunSemiringDp(q, db, MinPlusSemiring{}, ctx,
                           [](int64_t v) { return SemiringValue::MinPlus(v); });
    case SemiringId::kMaxMin:
      return RunSemiringDp(q, db, MaxMinSemiring{}, ctx,
                           [](int64_t v) { return SemiringValue::MaxMin(v); });
    case SemiringId::kTopK:
      return RunSemiringDp(
          q, db, TopKSemiring(kTopKWireK), ctx,
          [](const TopKList& v) { return SemiringValue::TopK(v.ToVector()); });
  }
  return Status::InvalidArgument("unknown semiring id");
}

Result<SemiringValue> FoldAnswersSemiring(const ConjunctiveQuery& q,
                                          const Relation& answers,
                                          SemiringId id) {
  if (answers.arity() != q.head().size()) {
    return Status::InvalidArgument(
        "answer relation arity does not match the query head");
  }
  const std::vector<size_t> cols = FirstOccurrenceHeadCols(q.head());
  switch (id) {
    case SemiringId::kCounting:
      return FoldRows(answers, CountingSemiring{}, cols, [](BigInt v) {
        return SemiringValue::Counting(std::move(v));
      });
    case SemiringId::kBoolean:
      return FoldRows(answers, BooleanSemiring{}, cols,
                      [](bool v) { return SemiringValue::Boolean(v); });
    case SemiringId::kMinPlus:
      return FoldRows(answers, MinPlusSemiring{}, cols,
                      [](int64_t v) { return SemiringValue::MinPlus(v); });
    case SemiringId::kMaxMin:
      return FoldRows(answers, MaxMinSemiring{}, cols,
                      [](int64_t v) { return SemiringValue::MaxMin(v); });
    case SemiringId::kTopK:
      return FoldRows(answers, TopKSemiring(kTopKWireK), cols,
                      [](const TopKList& v) {
                        return SemiringValue::TopK(v.ToVector());
                      });
  }
  return Status::InvalidArgument("unknown semiring id");
}

Result<BigInt> CountAcq(const ConjunctiveQuery& q, const Database& db) {
  FGQ_ASSIGN_OR_RETURN(SemiringValue v,
                       SemiringSumAcq(q, db, SemiringId::kCounting));
  return std::move(v.count);
}

Result<double> WeightedCountAcq(const ConjunctiveQuery& q, const Database& db,
                                const std::function<double(Value)>& weight) {
  FGQ_RETURN_NOT_OK(q.Validate());
  return SumAcq(q, db, RealSemiring{weight}, ExecContext());
}

}  // namespace fgq
