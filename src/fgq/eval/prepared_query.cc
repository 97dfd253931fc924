#include "fgq/eval/prepared_query.h"

#include <utility>

#include "fgq/count/acq_count.h"
#include "fgq/trace/trace.h"
#include "fgq/vm/vm.h"

namespace fgq {

namespace {

/// Runs a fresh cursor over `entry` for at most `limit` answers (0 = all),
/// appending them to `out` — or, with a null `out`, only counting them in
/// O(1) memory — and returns how many it stepped. Fails with the
/// cancellation status, labelled `what`, when `cancel` trips.
Result<uint64_t> Drain(const PreparedQuery& entry, uint64_t limit,
                       const CancelToken& cancel, TraceContext* trace,
                       Relation* out, const char* what) {
  std::unique_ptr<AnswerEnumerator> cursor = entry.Cursor(trace);
  uint64_t n = 0;
  Tuple t;
  while ((limit == 0 || n < limit) && cursor->Next(&t)) {
    ++n;
    if (out == nullptr) {
      // Count only.
    } else if (out->arity() == 0) {
      out->AddNullary();
    } else {
      out->Add(t);
    }
    if (cancel.cancelled()) {
      Status base = cancel.Check(what);
      return Status(base.code(), base.message() + " (" + std::to_string(n) +
                                     " answers enumerated)");
    }
  }
  return n;
}

}  // namespace

AggregateMemo::~AggregateMemo() {
  for (auto& slot : slots_) delete slot.load(std::memory_order_relaxed);
}

const SemiringValue* AggregateMemo::Get(SemiringId id) const {
  return slots_[static_cast<size_t>(id)].load(std::memory_order_acquire);
}

const SemiringValue& AggregateMemo::Publish(SemiringId id, SemiringValue v) {
  auto* mine = new SemiringValue(std::move(v));
  const SemiringValue* published = nullptr;
  if (slots_[static_cast<size_t>(id)].compare_exchange_strong(
          published, mine, std::memory_order_acq_rel,
          std::memory_order_acquire)) {
    return *mine;
  }
  delete mine;  // Lost the race: keep the first value.
  return *published;
}

std::unique_ptr<AnswerEnumerator> PreparedQuery::Cursor(
    TraceContext* trace) const {
  if (program) return vm::MakeProgramCursor(program, trace);
  if (plan) return MakePlanEnumerator(plan);
  return MakeMaterializedEnumerator(answers);
}

Result<std::shared_ptr<const Relation>> PreparedQuery::Stream(
    const ConjunctiveQuery& q, uint64_t limit, const CancelToken& cancel,
    TraceContext* trace) const {
  if (answers) {
    if (limit == 0 || limit >= answers->NumTuples()) return answers;
    // Truncated view of the shared materialized answers.
    auto prefix = std::make_shared<Relation>(answers->name(), answers->arity());
    prefix->AppendPrefixFrom(*answers, limit);
    return std::shared_ptr<const Relation>(std::move(prefix));
  }
  TraceSpan span(trace, "enumerate");
  auto out = std::make_shared<Relation>(q.name(), q.arity());
  FGQ_ASSIGN_OR_RETURN(
      uint64_t n, Drain(*this, limit, cancel, trace, out.get(),
                        "answer enumeration"));
  TraceCounter(trace, "tuples_emitted", n);
  return std::shared_ptr<const Relation>(std::move(out));
}

Result<SemiringValue> PreparedQuery::Aggregate(const ConjunctiveQuery& q,
                                               SemiringId id,
                                               const CancelToken& cancel,
                                               TraceContext* trace,
                                               bool* from_memo) const {
  const SemiringValue* memo = aggregates.Get(id);
  if (from_memo != nullptr) *from_memo = memo != nullptr;
  if (memo != nullptr) return *memo;
  TraceSpan span(trace, "enumerate");
  Result<SemiringValue> v = [&]() -> Result<SemiringValue> {
    if (program) return vm::RunSemiring(*program, id, cancel, trace);
    const char* what = "semiring aggregation";
    if (id == SemiringId::kCounting) {
      uint64_t n = answers ? answers->NumTuples() : 0;
      if (!answers) {
        FGQ_ASSIGN_OR_RETURN(n, Drain(*this, 0, cancel, trace, nullptr, what));
      }
      return SemiringValue::Counting(BigInt::FromUint64(n));
    }
    if (answers) return FoldAnswersSemiring(q, *answers, id);
    Relation drained(q.name(), q.arity());
    FGQ_RETURN_NOT_OK(Drain(*this, 0, cancel, trace, &drained, what).status());
    return FoldAnswersSemiring(q, drained, id);
  }();
  // A cancelled or timed-out fold publishes nothing.
  if (!v.ok()) return v;
  return aggregates.Publish(id, std::move(v).value());
}

}  // namespace fgq
