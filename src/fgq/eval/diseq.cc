#include "fgq/eval/diseq.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>

#include "fgq/eval/oracle.h"
#include "fgq/eval/prepared.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/util/hash.h"

namespace fgq {

std::vector<Value> FunctionTable::ColumnValues(size_t i) const {
  std::set<Value> vals;
  for (const Tuple& row : rows) vals.insert(row[i]);
  return std::vector<Value>(vals.begin(), vals.end());
}

bool CoversTable(const FunctionTable& table, const Tuple& cover) {
  for (const Tuple& row : table.rows) {
    bool hit = false;
    for (size_t i = 0; i < table.k && !hit; ++i) {
      hit = cover[i] != kBlank && cover[i] == row[i];
    }
    if (!hit) return false;
  }
  return true;
}

bool MoreGeneral(const Tuple& c1, const Tuple& c2) {
  for (size_t i = 0; i < c1.size(); ++i) {
    if (c1[i] != kBlank && c1[i] != c2[i]) return false;
  }
  return true;
}

namespace {

/// Recursive cover generation following the remark after Definition 4.17:
/// c covers (E, f) iff for some i, c_i = f_i(a) and c_-i covers
/// (E_i^a, f_-i), where a is any fixed element of E. `active_rows` are
/// indices into table.rows, `active_cols` into [0, k).
void GenerateCovers(const FunctionTable& table,
                    const std::vector<size_t>& active_rows,
                    const std::vector<size_t>& active_cols, Tuple* partial,
                    std::vector<Tuple>* out) {
  if (active_rows.empty()) {
    out->push_back(*partial);  // Remaining coordinates stay blank (minimal).
    return;
  }
  if (active_cols.empty()) return;  // Uncoverable branch.
  size_t a = active_rows[0];
  for (size_t ci = 0; ci < active_cols.size(); ++ci) {
    size_t col = active_cols[ci];
    Value v = table.rows[a][col];
    std::vector<size_t> next_rows;
    for (size_t r : active_rows) {
      if (table.rows[r][col] != v) next_rows.push_back(r);
    }
    std::vector<size_t> next_cols = active_cols;
    next_cols.erase(next_cols.begin() + static_cast<ptrdiff_t>(ci));
    (*partial)[col] = v;
    GenerateCovers(table, next_rows, next_cols, partial, out);
    (*partial)[col] = kBlank;
  }
}

}  // namespace

std::vector<Tuple> MinimalCovers(const FunctionTable& table) {
  std::vector<size_t> rows(table.rows.size());
  std::vector<size_t> cols(table.k);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  Tuple partial(table.k, kBlank);
  std::vector<Tuple> candidates;
  GenerateCovers(table, rows, cols, &partial, &candidates);
  // Deduplicate and keep only minimal ones.
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end()),
                   candidates.end());
  std::vector<Tuple> minimal;
  for (const Tuple& c : candidates) {
    bool dominated = false;
    for (const Tuple& other : candidates) {
      if (other != c && MoreGeneral(other, c)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) minimal.push_back(c);
  }
  return minimal;
}

namespace {

void CollectRepresentatives(const FunctionTable& table,
                            const std::vector<size_t>& active_rows,
                            const std::vector<size_t>& active_cols,
                            std::set<size_t>* out) {
  if (active_rows.empty()) return;
  size_t a = active_rows[0];
  // `a` is always kept: when no columns remain it is the witness that
  // kills covers which would otherwise hold on the subset but not on E.
  out->insert(a);
  if (active_cols.empty()) return;
  for (size_t ci = 0; ci < active_cols.size(); ++ci) {
    size_t col = active_cols[ci];
    Value v = table.rows[a][col];
    std::vector<size_t> next_rows;
    for (size_t r : active_rows) {
      if (table.rows[r][col] != v) next_rows.push_back(r);
    }
    std::vector<size_t> next_cols = active_cols;
    next_cols.erase(next_cols.begin() + static_cast<ptrdiff_t>(ci));
    CollectRepresentatives(table, next_rows, next_cols, out);
  }
}

}  // namespace

std::vector<size_t> RepresentativeSet(const FunctionTable& table) {
  std::vector<size_t> rows(table.rows.size());
  std::vector<size_t> cols(table.k);
  for (size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  for (size_t i = 0; i < cols.size(); ++i) cols[i] = i;
  std::set<size_t> reps;
  CollectRepresentatives(table, rows, cols, &reps);
  return std::vector<size_t>(reps.begin(), reps.end());
}

std::vector<Tuple> AllCoversBruteForce(const FunctionTable& table,
                                       const std::vector<Value>& range) {
  std::vector<Value> alphabet = range;
  alphabet.push_back(kBlank);
  std::vector<Tuple> out;
  Tuple cur(table.k, kBlank);
  // Odometer over alphabet^k.
  std::vector<size_t> idx(table.k, 0);
  while (true) {
    for (size_t i = 0; i < table.k; ++i) cur[i] = alphabet[idx[i]];
    if (CoversTable(table, cur)) out.push_back(cur);
    size_t p = 0;
    while (p < table.k && ++idx[p] == alphabet.size()) {
      idx[p] = 0;
      ++p;
    }
    if (p == table.k) break;
  }
  std::sort(out.begin(), out.end());
  return out;
}

// ---- ACQ_!= evaluation ------------------------------------------------------

namespace {

/// The long loops poll the cancel token once per kPollMask + 1 rows.
constexpr uint64_t kPollMask = 4095;

/// One eliminated quantified variable: the rewritten atom's key variables
/// (all free), the free variables it must differ from, and the witness
/// store (key -> up to m+1 distinct values of z).
struct WitnessCheck {
  std::vector<std::string> key_vars;
  std::vector<std::string> forbidden_vars;
  std::unordered_map<Tuple, std::vector<Value>, VecHash> witnesses;
};

/// Analysis outcome for the fast path.
struct NeqPlan {
  ConjunctiveQuery rewritten;  // ACQ without the constrained variables.
  std::vector<WitnessCheck> checks;
  std::vector<Comparison> free_diseqs;  // Both sides free.
  Database scratch;                     // Rewritten atom relations.
};

Result<NeqPlan> BuildNeqPlan(const ConjunctiveQuery& q, const Database& db,
                             const ExecContext& ctx) {
  for (const Comparison& c : q.comparisons()) {
    if (c.op != Comparison::Op::kNotEqual) {
      return Status::Unsupported("only disequalities are allowed in ACQ_!=");
    }
  }
  std::set<std::string> free(q.head().begin(), q.head().end());

  // Group constraints by the quantified variable they touch.
  std::map<std::string, std::vector<std::string>> quantified_constraints;
  NeqPlan plan;
  for (const Comparison& c : q.comparisons()) {
    bool lhs_free = free.count(c.lhs) > 0;
    bool rhs_free = free.count(c.rhs) > 0;
    if (lhs_free && rhs_free) {
      plan.free_diseqs.push_back(c);
    } else if (lhs_free || rhs_free) {
      const std::string& qvar = lhs_free ? c.rhs : c.lhs;
      const std::string& fvar = lhs_free ? c.lhs : c.rhs;
      quantified_constraints[qvar].push_back(fvar);
    } else {
      return Status::Unsupported(
          "disequality between two quantified variables: " + c.ToString());
    }
  }

  // Rewrite each constrained quantified variable away.
  plan.rewritten = ConjunctiveQuery(q.name(), q.head(), {});
  int fresh = 0;
  for (const Atom& atom : q.atoms()) {
    std::vector<std::string> avars = atom.Variables();
    std::vector<std::string> constrained;
    for (const std::string& v : avars) {
      if (quantified_constraints.count(v)) constrained.push_back(v);
    }
    if (constrained.empty()) {
      plan.rewritten.AddAtom(atom);
      continue;
    }
    if (constrained.size() > 1) {
      return Status::Unsupported(
          "atom has several constrained quantified variables: " +
          atom.ToString());
    }
    const std::string& z = constrained[0];
    // z must occur only in this atom; the other variables must be free.
    int occurrences = 0;
    for (const Atom& other : q.atoms()) {
      for (const std::string& v : other.Variables()) {
        if (v == z) ++occurrences;
      }
    }
    if (occurrences != 1) {
      return Status::Unsupported("constrained quantified variable '" + z +
                                 "' occurs in several atoms");
    }
    for (const std::string& v : avars) {
      if (v != z && !free.count(v)) {
        return Status::Unsupported(
            "atom mixing a constrained quantified variable with another "
            "quantified variable: " +
            atom.ToString());
      }
    }
    // Build the witness store from the prepared atom.
    FGQ_RETURN_NOT_OK(ctx.cancel().Check("disequality witness store"));
    FGQ_ASSIGN_OR_RETURN(PreparedAtom pa, PrepareAtom(atom, db, ctx));
    int z_col = pa.VarIndex(z);
    WitnessCheck check;
    check.forbidden_vars = quantified_constraints[z];
    const size_t budget = check.forbidden_vars.size() + 1;
    std::vector<size_t> key_cols;
    for (size_t c = 0; c < pa.vars.size(); ++c) {
      if (static_cast<int>(c) != z_col) {
        check.key_vars.push_back(pa.vars[c]);
        key_cols.push_back(c);
      }
    }
    Tuple key(key_cols.size());
    std::vector<const Value*> cols(pa.vars.size());
    for (size_t c = 0; c < pa.vars.size(); ++c) cols[c] = pa.rel.Column(c);
    for (size_t r = 0; r < pa.rel.NumTuples(); ++r) {
      if ((r & kPollMask) == 0) {
        FGQ_RETURN_NOT_OK(ctx.cancel().Check("disequality witness store"));
      }
      for (size_t j = 0; j < key_cols.size(); ++j) key[j] = cols[key_cols[j]][r];
      std::vector<Value>& wl = check.witnesses[key];
      Value zv = cols[static_cast<size_t>(z_col)][r];
      if (wl.size() < budget &&
          std::find(wl.begin(), wl.end(), zv) == wl.end()) {
        wl.push_back(zv);
      }
    }
    // The rewritten atom: projection onto the key variables.
    std::string rel_name = "__neq_" + std::to_string(fresh++);
    Relation proj = pa.rel.Project(key_cols, rel_name, ctx);
    plan.scratch.PutRelation(std::move(proj));
    Atom rewritten_atom;
    rewritten_atom.relation = rel_name;
    for (const std::string& v : check.key_vars) {
      rewritten_atom.args.push_back(Term::Var(v));
    }
    plan.rewritten.AddAtom(std::move(rewritten_atom));
    plan.checks.push_back(std::move(check));
  }
  return plan;
}

/// Filters an inner enumerator's answers through witness checks and
/// free-free disequalities. Each check costs query-sized time; witness
/// representative sets bound the number of consecutive rejections per key
/// in the workloads Theorem 4.20 covers.
class NeqFilterEnumerator : public AnswerEnumerator {
 public:
  NeqFilterEnumerator(std::unique_ptr<AnswerEnumerator> inner, NeqPlan plan,
                      const std::vector<std::string>& head, CancelToken cancel)
      : inner_(std::move(inner)),
        plan_(std::move(plan)),
        cancel_(std::move(cancel)) {
    std::map<std::string, size_t> pos;
    for (size_t i = 0; i < head.size(); ++i) pos[head[i]] = i;
    for (const WitnessCheck& c : plan_.checks) {
      CheckCols cc;
      for (const std::string& v : c.key_vars) cc.key_cols.push_back(pos[v]);
      for (const std::string& v : c.forbidden_vars) {
        cc.forbidden_cols.push_back(pos[v]);
      }
      check_cols_.push_back(std::move(cc));
    }
    for (const Comparison& c : plan_.free_diseqs) {
      diseq_cols_.push_back({pos[c.lhs], pos[c.rhs]});
    }
  }

  bool Next(Tuple* out) override {
    Tuple t;
    while (inner_->Next(&t)) {
      // A tripped token ends the stream (rejections can run long).
      if ((++pulled_ & kPollMask) == 0 && !cancel_.Check().ok()) return false;
      if (Accept(t)) {
        *out = std::move(t);
        return true;
      }
    }
    return false;
  }

 private:
  struct CheckCols {
    std::vector<size_t> key_cols;
    std::vector<size_t> forbidden_cols;
  };

  bool Accept(const Tuple& t) const {
    for (const auto& [l, r] : diseq_cols_) {
      if (t[l] == t[r]) return false;
    }
    for (size_t i = 0; i < plan_.checks.size(); ++i) {
      const WitnessCheck& check = plan_.checks[i];
      const CheckCols& cc = check_cols_[i];
      Tuple key(cc.key_cols.size());
      for (size_t j = 0; j < cc.key_cols.size(); ++j) key[j] = t[cc.key_cols[j]];
      auto it = check.witnesses.find(key);
      if (it == check.witnesses.end()) return false;
      bool ok = false;
      for (Value w : it->second) {
        bool clash = false;
        for (size_t f : cc.forbidden_cols) {
          if (t[f] == w) {
            clash = true;
            break;
          }
        }
        if (!clash) {
          ok = true;
          break;
        }
      }
      if (!ok) return false;
    }
    return true;
  }

  std::unique_ptr<AnswerEnumerator> inner_;
  NeqPlan plan_;
  std::vector<CheckCols> check_cols_;
  std::vector<std::pair<size_t, size_t>> diseq_cols_;
  CancelToken cancel_;
  uint64_t pulled_ = 0;
};

Database MergeScratch(const Database& db, const Database& scratch) {
  Database merged;
  for (const auto& [name, rel] : db.relations()) merged.PutRelationShared(rel);
  for (const auto& [name, rel] : scratch.relations()) {
    merged.PutRelationShared(rel);
  }
  return merged;
}

}  // namespace

Result<std::unique_ptr<AnswerEnumerator>> MakeNeqEnumerator(
    const ConjunctiveQuery& q, const Database& db, const ExecContext& ctx) {
  FGQ_RETURN_NOT_OK(q.Validate());
  FGQ_ASSIGN_OR_RETURN(NeqPlan plan, BuildNeqPlan(q, db, ctx));
  Database merged = MergeScratch(db, plan.scratch);
  FGQ_ASSIGN_OR_RETURN(std::unique_ptr<AnswerEnumerator> inner,
                       MakeConstantDelayEnumerator(plan.rewritten, merged, ctx));
  return std::unique_ptr<AnswerEnumerator>(new NeqFilterEnumerator(
      std::move(inner), std::move(plan), q.head(), ctx.cancel()));
}

Result<Relation> EvaluateAcqNeq(const ConjunctiveQuery& q, const Database& db,
                                const ExecContext& ctx) {
  Result<std::unique_ptr<AnswerEnumerator>> e = MakeNeqEnumerator(q, db, ctx);
  if (!e.ok()) {
    const StatusCode code = e.status().code();
    if (code == StatusCode::kCancelled ||
        code == StatusCode::kDeadlineExceeded) {
      return e.status();
    }
    // Unsupported shapes fall back to the oracle.
    return EvaluateBacktrack(q, db, ctx.cancel());
  }
  Relation out = DrainEnumerator(e.value().get(), q.name(), q.arity());
  // A tripped token ends the stream early; it stays tripped, so a cut
  // drain is told apart from a complete one here.
  FGQ_RETURN_NOT_OK(ctx.cancel().Check("disequality enumeration"));
  return out;
}

}  // namespace fgq
