#ifndef SERVEBENCH_REFERENCE_H_
#define SERVEBENCH_REFERENCE_H_

// The correctness oracle. It evaluates each query of the mix with plain
// hash joins over the generated relations, folds the answer sets under
// the five semirings of docs/SEMIRINGS.md, and judges wire responses
// against the result. It shares no evaluation code with the library.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "fgq/net/protocol.h"
#include "workload.h"

namespace servebench {

/// A distinct answer set, rows packed 21 bits per value and sorted.
struct AnswerSet {
  int arity = 0;
  std::vector<uint64_t> keys;
  uint64_t hash_sum = 0;  ///< Sum of RowHash over the rows (order-free).
  bool Contains(uint64_t key) const;
};

uint64_t PackRow(const int64_t* row, int arity);
uint64_t RowHash(uint64_t key);

/// The answer set of `kind` over `db`.
AnswerSet Evaluate(Kind kind, const Db& db);

/// The expected kCount body of `set` under `id`: the fold of
/// docs/SEMIRINGS.md (weight of a value = the value, head variables
/// weighted once, top-k keeps the 4 least distinct totals).
std::string Fold(const AnswerSet& set, fgq::SemiringId id);

/// Reference answers of every mix entry over one database state.
struct StateRef {
  std::vector<AnswerSet> sets;  ///< Indexed by Kind.
  std::map<std::pair<int, int>, std::string> folds;  ///< (kind, semiring).
  const AnswerSet& set(Kind k) const { return sets[static_cast<int>(k)]; }
};
StateRef BuildStateRef(const Workload& w, const Db& db);

/// Empty when `resp` answers `e` correctly over `ref`, else the reason.
/// Rows responses are judged by shape, distinctness and membership
/// (kEnumerateLimit) or by size and the order-free row hash (kRows).
std::string CheckResponse(const MixEntry& e, const fgq::net::Response& resp,
                          const StateRef& ref);

/// Empty when a read that pinned `epoch` is consistent with the write
/// log: at least `min_epoch` (the writes its own connection sent before
/// it) and at most `max_published` (every write sent so far).
std::string CheckEpoch(uint64_t epoch, uint64_t min_epoch,
                       uint64_t max_published);

/// Exact comparison of a full kRows body with the reference set: every
/// row once, nothing else. Used on the seeded sample.
std::string CheckExact(const fgq::net::Response& resp, const AnswerSet& set);

}  // namespace servebench

#endif  // SERVEBENCH_REFERENCE_H_
