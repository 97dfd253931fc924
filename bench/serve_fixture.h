#ifndef FGQ_BENCH_SERVE_FIXTURE_H_
#define FGQ_BENCH_SERVE_FIXTURE_H_

#include <memory>

#include "fgq/serve/plan_cache.h"
#include "fgq/serve/query_service.h"

/// \file serve_fixture.h
/// Timing the count verb's fold on a cached entry.
///
/// The service memoizes every aggregate on its plan-cache entry, so a
/// repeated count request reads the memo instead of folding. Fixtures
/// that time the fold itself call ForgetAggregates between iterations
/// (outside the timing): it swaps the entry for one that shares the same
/// preparation — plan, program or answers — with an empty memo, so the
/// next request is a cache hit that folds again.

namespace fgq {
namespace benchserve {

/// The key QueryService gives `q` at `tier` over a bare database.
inline PlanKey LegacyPlanKey(const ConjunctiveQuery& q, const Database& db,
                             ExecTier tier) {
  PlanKey key;
  key.canonical = CanonicalQueryText(q);
  key.db_version = db.version();
  key.tier = static_cast<uint8_t>(tier);
  return key;
}

/// Replaces the entry under `key` by a copy of its preparation with an
/// empty aggregate memo. False when no entry is cached under `key`.
inline bool ForgetAggregates(QueryService& service, const PlanKey& key) {
  std::shared_ptr<const PreparedQuery> entry = service.cache().Get(key);
  if (entry == nullptr) return false;
  auto fresh = std::make_shared<PreparedQuery>();
  fresh->classification = entry->classification;
  fresh->algorithm = entry->algorithm;
  fresh->plan = entry->plan;
  fresh->program = entry->program;
  fresh->answers = entry->answers;
  service.cache().Put(key, std::move(fresh));
  return true;
}

}  // namespace benchserve
}  // namespace fgq

#endif  // FGQ_BENCH_SERVE_FIXTURE_H_
