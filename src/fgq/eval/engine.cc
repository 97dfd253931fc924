#include "fgq/eval/engine.h"

#include <utility>

#include "fgq/count/acq_count.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/diseq.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/prepared_query.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/term.h"
#include "fgq/trace/trace.h"
#include "fgq/vm/compile.h"

namespace fgq {

const char* QueryClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kBooleanAcyclic:
      return "boolean-acyclic";
    case QueryClass::kFreeConnexAcyclic:
      return "free-connex";
    case QueryClass::kGeneralAcyclic:
      return "general-acyclic";
    case QueryClass::kAcyclicDisequalities:
      return "acyclic-disequalities";
    case QueryClass::kAcyclicOrderComparisons:
      return "acyclic-order-comparisons";
    case QueryClass::kNegated:
      return "negated";
    case QueryClass::kCyclic:
      return "cyclic";
  }
  return "unknown";
}

const Database* ExecRequest::EffectiveDb() const {
  if (db != nullptr) return db;
  return snapshot != nullptr ? &snapshot->db() : nullptr;
}

namespace {

/// Wraps an enumerator so that it keeps an epoch snapshot alive: the
/// inner cursor borrows relations (and maintained indexes) owned by the
/// snapshot's database, so the wrapper's shared_ptr is what makes
/// draining safe after SnapshotStore::Apply publishes newer epochs.
class SnapshotPinnedEnumerator : public AnswerEnumerator {
 public:
  SnapshotPinnedEnumerator(std::unique_ptr<AnswerEnumerator> inner,
                           std::shared_ptr<const Snapshot> snap)
      : inner_(std::move(inner)), snap_(std::move(snap)) {}

  bool Next(Tuple* out) override { return inner_->Next(out); }

 private:
  std::unique_ptr<AnswerEnumerator> inner_;
  std::shared_ptr<const Snapshot> snap_;
};

Result<std::unique_ptr<AnswerEnumerator>> PinEnumerator(
    Result<std::unique_ptr<AnswerEnumerator>> e,
    const std::shared_ptr<const Snapshot>& snap) {
  if (!e.ok() || snap == nullptr) return e;
  return std::unique_ptr<AnswerEnumerator>(
      new SnapshotPinnedEnumerator(std::move(e).value(), snap));
}

}  // namespace

Engine::Engine(const ExecOptions& opts) : opts_(opts), ctx_(opts) {}

QueryClass Engine::Classify(const ConjunctiveQuery& q) {
  if (q.HasNegation()) return QueryClass::kNegated;
  if (!IsAcyclicQuery(q)) return QueryClass::kCyclic;
  if (!q.comparisons().empty()) {
    for (const Comparison& c : q.comparisons()) {
      if (c.op != Comparison::Op::kNotEqual) {
        return QueryClass::kAcyclicOrderComparisons;
      }
    }
    return QueryClass::kAcyclicDisequalities;
  }
  if (q.IsBoolean()) return QueryClass::kBooleanAcyclic;
  if (IsFreeConnex(q)) return QueryClass::kFreeConnexAcyclic;
  return QueryClass::kGeneralAcyclic;
}

bool Engine::Compiles(QueryClass c, ExecTier tier) {
  switch (c) {
    case QueryClass::kBooleanAcyclic:
    case QueryClass::kFreeConnexAcyclic:
      // The compiled stream is bit-identical to the plan cursor's.
      return tier != ExecTier::kInterpret;
    case QueryClass::kAcyclicDisequalities:
      // Same answer set as witness elimination, possibly another order.
      return tier == ExecTier::kCompile;
    case QueryClass::kGeneralAcyclic:
    case QueryClass::kAcyclicOrderComparisons:
    case QueryClass::kNegated:
    case QueryClass::kCyclic:
      return false;
  }
  return false;
}

ExecContext Engine::ContextFor(const ExecRequest& req) const {
  // Start from the engine's shared context (its pool); only a per-call
  // ExecOptions override that actually differs forces a fresh pool.
  ExecContext ctx =
      (req.options.has_value() && !(*req.options == opts_))
          ? ExecContext(*req.options)
          : ctx_;
  if (req.cancel.cancellable()) ctx = ctx.WithCancel(req.cancel);
  if (req.trace != nullptr) ctx = ctx.WithTrace(req.trace);
  return ctx;
}

Result<std::shared_ptr<const PreparedQuery>> Engine::Prepare(
    const ExecRequest& req) const {
  const Database* dbp = req.EffectiveDb();
  if (req.query == nullptr || dbp == nullptr) {
    return Status::InvalidArgument("ExecRequest needs a query and a database");
  }
  const ConjunctiveQuery& q = *req.query;
  const Database& db = *dbp;
  FGQ_RETURN_NOT_OK(q.Validate());
  const ExecContext ctx = ContextFor(req);
  auto entry = std::make_shared<PreparedQuery>();
  entry->classification = Classify(q);
  TraceSpan span(ctx.trace(), "engine.prepare", "engine");
  if (ctx.trace() != nullptr) {
    span.Arg("query", q.name());
    span.Arg("class", QueryClassName(entry->classification));
  }
  const bool compile = Compiles(entry->classification, req.tier);
  Result<Relation> answers = Status::Internal("unhandled query class");
  switch (entry->classification) {
    case QueryClass::kBooleanAcyclic:
    case QueryClass::kFreeConnexAcyclic: {
      // The Theorem 4.6 preprocessing; cursors over it run per call.
      FGQ_ASSIGN_OR_RETURN(FreeConnexPlan fc, BuildFreeConnexPlan(q, db, ctx));
      FGQ_ASSIGN_OR_RETURN(entry->plan,
                           IndexFreeConnexPlan(std::move(fc), q.head(), ctx));
      entry->algorithm =
          entry->classification == QueryClass::kBooleanAcyclic
              ? "boolean-semijoin-sweep"
              : "constant-delay-enumeration";
      if (compile) {
        vm::Compilation comp = vm::CompilePlan(entry->plan, q, ctx.trace());
        if (comp.ok()) {
          entry->program = comp.program;
          entry->algorithm = comp.program->algorithm;
        }
      }
      break;
    }
    case QueryClass::kGeneralAcyclic:
      answers = EvaluateYannakakis(q, db, ctx);
      entry->algorithm = "yannakakis";
      break;
    case QueryClass::kAcyclicDisequalities: {
      // Head-only disequalities over a free-connex strip compile to the
      // stripped plan plus post-emit filters; CompileQuery declines every
      // other shape, which witness elimination then serves.
      if (compile) {
        FGQ_ASSIGN_OR_RETURN(vm::Compilation comp,
                             vm::CompileQuery(q, db, ctx));
        if (comp.ok()) {
          entry->program = comp.program;
          entry->algorithm = comp.program->algorithm;
          break;
        }
      }
      TraceSpan neq(ctx.trace(), "neq_witness_elimination");
      answers = EvaluateAcqNeq(q, db);
      entry->algorithm = "neq-witness-elimination";
      break;
    }
    case QueryClass::kAcyclicOrderComparisons:
    case QueryClass::kNegated:
    case QueryClass::kCyclic: {
      TraceSpan oracle(ctx.trace(), "oracle.backtrack");
      answers = EvaluateBacktrack(q, db, ctx.cancel());
      entry->algorithm = "backtracking-oracle";
      break;
    }
  }
  if (entry->plan == nullptr && entry->program == nullptr) {
    if (!answers.ok()) return answers.status();
    TraceCounter(ctx.trace(), "tuples_emitted", answers->NumTuples());
    entry->answers =
        std::make_shared<const Relation>(std::move(answers).value());
  }
  span.Arg("algorithm", entry->algorithm);
  return std::shared_ptr<const PreparedQuery>(std::move(entry));
}

Result<ExecResult> Engine::Run(const ExecRequest& req) const {
  TraceSpan span(req.trace, "engine.execute", "engine");
  FGQ_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> entry,
                       Prepare(req));
  FGQ_ASSIGN_OR_RETURN(std::shared_ptr<const Relation> answers,
                       entry->Stream(*req.query, 0, req.cancel, req.trace));
  ExecResult res;
  res.classification = entry->classification;
  res.algorithm = entry->algorithm;
  res.answers = *answers;
  // A cursor streams in plan order; materialized answers are already sets.
  if (entry->answers == nullptr) res.answers.SortDedup();
  if (req.trace != nullptr) {
    span.Arg("query", req.query->name());
    span.Arg("class", QueryClassName(res.classification));
    span.Arg("algorithm", res.algorithm);
  }
  return res;
}

Result<BigInt> Engine::Count(const ExecRequest& req) const {
  ExecRequest counting = req;
  counting.semiring = SemiringId::kCounting;
  FGQ_ASSIGN_OR_RETURN(SemiringValue v, SumProduct(counting));
  return std::move(v.count);
}

Result<SemiringValue> Engine::SumProduct(const ExecRequest& req) const {
  const Database* db = req.EffectiveDb();
  if (req.query == nullptr || db == nullptr) {
    return Status::InvalidArgument("ExecRequest needs a query and a database");
  }
  const ConjunctiveQuery& q = *req.query;
  FGQ_RETURN_NOT_OK(q.Validate());
  const QueryClass cls = Classify(q);
  const ExecContext ctx = ContextFor(req);
  TraceSpan span(ctx.trace(), "engine.sum_product", "engine");
  if (ctx.trace() != nullptr) {
    span.Arg("query", q.name());
    span.Arg("semiring", SemiringName(req.semiring));
  }
  const bool plain_acyclic = cls == QueryClass::kBooleanAcyclic ||
                             cls == QueryClass::kFreeConnexAcyclic ||
                             cls == QueryClass::kGeneralAcyclic;
  // The join-tree DP is O(||D||) at star size 1 and materializes nothing;
  // only a compiled fold beats it, and for counting not even that (the
  // compiled count stream grows with the number of answers).
  if (plain_acyclic &&
      (req.semiring == SemiringId::kCounting || !Compiles(cls, req.tier))) {
    return SemiringSumAcq(q, *db, req.semiring, ctx);
  }
  FGQ_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> entry,
                       Prepare(req));
  return entry->Aggregate(q, req.semiring, req.cancel, req.trace);
}

Result<std::unique_ptr<AnswerEnumerator>> Engine::Enumerate(
    const ExecRequest& req) const {
  const Database* db = req.EffectiveDb();
  if (req.query == nullptr || db == nullptr) {
    return Status::InvalidArgument("ExecRequest needs a query and a database");
  }
  const ConjunctiveQuery& q = *req.query;
  FGQ_RETURN_NOT_OK(q.Validate());
  const QueryClass cls = Classify(q);
  // Two classes have an enumerator with a delay bound that a prepared
  // entry (materialized answers) would lose.
  if (cls == QueryClass::kGeneralAcyclic) {
    return PinEnumerator(MakeLinearDelayEnumerator(q, *db, ContextFor(req)),
                         req.snapshot);
  }
  if (cls == QueryClass::kAcyclicDisequalities && !Compiles(cls, req.tier)) {
    // Theorem 4.20's fast path needs a specific shape; the prepared
    // entry materializes when it declines.
    Result<std::unique_ptr<AnswerEnumerator>> e = MakeNeqEnumerator(q, *db);
    if (e.ok()) return PinEnumerator(std::move(e), req.snapshot);
  }
  FGQ_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedQuery> entry,
                       Prepare(req));
  return PinEnumerator(entry->Cursor(req.trace), req.snapshot);
}

}  // namespace fgq
