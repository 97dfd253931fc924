#ifndef FGQ_SERVE_PLAN_CACHE_H_
#define FGQ_SERVE_PLAN_CACHE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fgq/count/semiring.h"
#include "fgq/db/relation.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/eval/enumerate.h"
#include "fgq/query/cq.h"
#include "fgq/util/hash.h"
#include "fgq/vm/program.h"

/// \file plan_cache.h
/// The serving layer's prepared-plan cache.
///
/// Preparing a query is the expensive half of answering it: for a
/// free-connex query, the Theorem 4.6 preprocessing (full reduction +
/// free-projection sweeps + hash-index builds) is O(||D||), while each
/// answer afterwards costs O(||phi||). A service that re-runs the
/// preprocessing on every request throws that asymmetry away. PlanCache
/// keeps the immutable preprocessing artifact — an IndexedFreeConnexPlan
/// (plus, on the compiled tier, the fgq::vm Program lowered from it) for
/// free-connex/Boolean queries, the materialized answer relation for
/// the other classes — keyed by the *canonicalized* query text, the data
/// state it was built against, and the execution tier, so a repeated
/// query (even alpha-renamed) skips straight to the enumeration phase,
/// any mutation of the data invalidates every plan (and compiled
/// program) built against it simply by changing the key, and requests at
/// different tiers never alias one entry.
///
/// The semiring is not part of the key: it parameterizes only the
/// aggregation phase, so rows requests and count requests under every
/// semiring share the one preparation. Each entry memoizes the count
/// verb's aggregate per semiring (AggregateMemo), counting included.

namespace fgq {

/// Renders `q` with variables renamed positionally ("v0", "v1", ... in
/// first-occurrence order, head first) so alpha-equivalent queries —
/// `Q(x) :- E(x, y)` and `Q(a) :- E(a, b)` — share one cache entry. Atom
/// order is preserved: reordering atoms is a different (if semantically
/// equal) plan, and canonicalizing modulo atom permutation would cost more
/// than a cache miss.
std::string CanonicalQueryText(const ConjunctiveQuery& q);

/// Cache key: canonical query text + the data state it was built against
/// + the execution tier that prepared it (a kCompile entry carries a
/// compiled program a kInterpret request must not be served from, and
/// vice versa).
///
/// The data state is one of two granularities:
///   * Legacy (db-backed service): `db_version` = Database::version() —
///     any mutation invalidates every plan.
///   * Snapshot-backed service: `rel_epochs` = the pinned snapshot's
///     per-relation epoch for each distinct relation the query mentions
///     (first-occurrence order, which the canonical text fixes), with
///     `db_version` left 0. A mutation of relation R changes only R's
///     epoch, so plans over untouched relations keep hitting — selective
///     invalidation. Stale entries (and their memoized aggregates) age
///     out of the LRU.
struct PlanKey {
  std::string canonical;
  uint64_t db_version = 0;
  /// Per-relation epochs of the snapshot the plan was prepared against
  /// (empty on the legacy whole-version path). Absent relations record
  /// epoch 0, so creating one later invalidates too.
  std::vector<uint64_t> rel_epochs;
  /// static_cast<uint8_t>(ExecTier) of the preparing request.
  uint8_t tier = 0;

  bool operator==(const PlanKey& o) const {
    return db_version == o.db_version && tier == o.tier &&
           rel_epochs == o.rel_epochs && canonical == o.canonical;
  }
};

/// Order-sensitive hash-combine over every field. The previous xor of
/// independently hashed fields collided trivially whenever two fields
/// swapped values (a ^ b == b ^ a) and cancelled identical contributions
/// outright; sequential HashCombine keeps each field's position in the
/// mix (see tests/serve_test.cc PlanKeyHashSwappedFields).
struct PlanKeyHash {
  size_t operator()(const PlanKey& k) const {
    uint64_t h = HashCombine(0x51ed270bu, k.db_version);
    h = HashCombine(h, k.tier);
    h = HashCombine(h, k.rel_epochs.size());
    for (uint64_t e : k.rel_epochs) h = HashCombine(h, e);
    h = HashCombine(h, std::hash<std::string>()(k.canonical));
    return static_cast<size_t>(h);
  }
};

/// Builds the snapshot-granularity key for `q` pinned at `snap`: the
/// canonical text plus the epoch of each distinct relation the query
/// mentions, in first-mention order (atoms, which the canonical text
/// preserves, then negated atoms share the same list). The trailing
/// semiring argument is accepted for source compatibility and ignored.
PlanKey MakeSnapshotPlanKey(const ConjunctiveQuery& q, const Snapshot& snap,
                            uint8_t tier, uint8_t /*semiring*/ = 0);

/// The count-verb aggregates of one cached preparation, one write-once
/// slot per SemiringId (counting included). The first request under a
/// semiring folds the shared preparation and publishes the value; later
/// requests read it. Publication is a compare-and-swap from null, so
/// racing workers may both fold but the first value published wins — the
/// values are pure functions of the entry, so which one wins is
/// immaterial — and a published slot never changes, so reads take no
/// lock.
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

/// One cached preparation. Exactly one of `plan` / `answers` is set:
/// free-connex and Boolean queries cache the indexed plan (cursors are
/// created per request), everything else caches the materialized answers.
/// On the compiled tier, `program` additionally holds the fgq::vm
/// bytecode lowered from `plan` (the program pins its plan alive);
/// requests then run VM cursors instead of interpreter cursors. The
/// preparation is immutable shared state — safe to hand to any number of
/// concurrent requests; `aggregates` is the one mutable member, and it is
/// thread-safe.
struct CachedPlan {
  QueryClass classification = QueryClass::kCyclic;
  std::string algorithm;
  std::shared_ptr<const IndexedFreeConnexPlan> plan;
  std::shared_ptr<const vm::Program> program;
  std::shared_ptr<const Relation> answers;
  mutable AggregateMemo aggregates;
};

/// A bounded LRU over CachedPlan entries. All operations take the cache
/// mutex; the values handed out are shared_ptrs to immutable state, so an
/// entry evicted mid-request stays alive until its last user drops it.
class PlanCache {
 public:
  /// `capacity` = max resident entries (>= 1).
  explicit PlanCache(size_t capacity = 128);

  /// Returns the entry for `key` and marks it most-recently-used, or
  /// nullptr on miss.
  std::shared_ptr<const CachedPlan> Get(const PlanKey& key);

  /// Inserts (or replaces) the entry for `key`, evicting the least
  /// recently used entry when over capacity.
  void Put(const PlanKey& key, std::shared_ptr<const CachedPlan> plan);

  /// Drops every entry.
  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  /// Lifetime hit/miss tallies (Get calls).
  uint64_t hits() const;
  uint64_t misses() const;

 private:
  struct Entry {
    PlanKey key;
    std::shared_ptr<const CachedPlan> plan;
  };

  mutable std::mutex mu_;
  size_t capacity_;
  /// Front = most recently used.
  std::list<Entry> lru_;
  std::unordered_map<PlanKey, std::list<Entry>::iterator, PlanKeyHash> map_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
};

}  // namespace fgq

#endif  // FGQ_SERVE_PLAN_CACHE_H_
