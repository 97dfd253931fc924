#ifndef FGQ_EVAL_PREPARED_QUERY_H_
#define FGQ_EVAL_PREPARED_QUERY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "fgq/count/semiring.h"
#include "fgq/db/relation.h"
#include "fgq/eval/engine.h"
#include "fgq/eval/enumerate.h"
#include "fgq/query/cq.h"
#include "fgq/util/cancel.h"
#include "fgq/util/status.h"
#include "fgq/vm/program.h"

/// \file prepared_query.h
/// One preparation of a query against one database state.
///
/// The paper splits answering a query into a preparation — the linear
/// preprocessing of Theorem 4.6, or the full evaluation where no such
/// split is known — and a cheap phase that streams answers or folds them
/// into an aggregate (Theorems 4.21/4.28). The semiring parameterizes
/// only the second phase (Fan–Koutris–Zhao, PAPERS.md). PreparedQuery is
/// that split as an object: Engine::Prepare builds it (the one place that
/// maps a query class and an execution tier to an algorithm), and both
/// Engine's calls and QueryService's cached requests run the two
/// operations below over it. The serving layer's plan cache stores these
/// entries (serve/plan_cache.h).

namespace fgq {

class TraceContext;  // src/fgq/trace/trace.h

/// The aggregates of one preparation, one write-once slot per SemiringId
/// (counting included). The first request under a semiring folds the
/// shared preparation and publishes the value; later requests read it.
/// Publication is a compare-and-swap from null, so racing workers may both
/// fold but the first value published wins — the values are pure
/// functions of the entry, so which one wins is immaterial — and a
/// published slot never changes, so reads take no lock.
class AggregateMemo {
 public:
  AggregateMemo() = default;
  AggregateMemo(const AggregateMemo&) = delete;
  AggregateMemo& operator=(const AggregateMemo&) = delete;
  ~AggregateMemo();

  /// The value published under `id`, or nullptr.
  const SemiringValue* Get(SemiringId id) const;
  /// Publishes `v` under `id` unless a value is already there; returns
  /// the slot's value either way.
  const SemiringValue& Publish(SemiringId id, SemiringValue v);

 private:
  std::array<std::atomic<const SemiringValue*>, kNumSemirings> slots_{};
};

/// One prepared query. Exactly one of `plan` / `program` / `answers`
/// drives it: Boolean and free-connex queries keep the indexed plan
/// (cursors are created per call), plus — where the tier rule compiles
/// the class — the fgq::vm bytecode lowered from it (the program pins its
/// plan alive, and then runs instead of the plan); a compiled head-only
/// disequality query keeps only its program; every other class keeps its
/// materialized answers. The preparation is immutable shared state, safe
/// to hand to any number of concurrent calls; `aggregates` is the one
/// mutable member, and it is thread-safe.
struct PreparedQuery {
  QueryClass classification = QueryClass::kCyclic;
  /// The algorithm that prepared the entry ("constant-delay-enumeration",
  /// "yannakakis", "...+vm", ...).
  std::string algorithm;
  std::shared_ptr<const IndexedFreeConnexPlan> plan;
  std::shared_ptr<const vm::Program> program;
  std::shared_ptr<const Relation> answers;
  mutable AggregateMemo aggregates;

  /// A fresh cursor: over the program, else the plan, else a replay of
  /// the answers. The cursor keeps what it reads alive by itself.
  std::unique_ptr<AnswerEnumerator> Cursor(TraceContext* trace) const;

  /// At most `limit` answers of `q` (0 = all), in cursor order: the
  /// shared materialized answers (or a copy of their prefix), else one
  /// cursor drain. Fails with the token's status when `cancel` trips
  /// mid-drain.
  Result<std::shared_ptr<const Relation>> Stream(const ConjunctiveQuery& q,
                                                 uint64_t limit,
                                                 const CancelToken& cancel,
                                                 TraceContext* trace) const;

  /// The ⊕-aggregate of `q`'s answers under semiring `id`: the memo slot
  /// when filled (then `*from_memo` is set), otherwise one fold of the
  /// preparation — the compiled stream when there is a program, else the
  /// materialized answers, else a drain of the plan cursor (counting only
  /// steps it, in O(1) memory) — published to the slot on success, never
  /// after a cancelled fold.
  Result<SemiringValue> Aggregate(const ConjunctiveQuery& q, SemiringId id,
                                  const CancelToken& cancel,
                                  TraceContext* trace,
                                  bool* from_memo = nullptr) const;
};

}  // namespace fgq

#endif  // FGQ_EVAL_PREPARED_QUERY_H_
