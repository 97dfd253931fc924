#ifndef SERVEBENCH_LAYERS_H_
#define SERVEBENCH_LAYERS_H_

// The traced run: the workload's own inputs replayed through the public
// calls of each layer on the served path, timed from here, plus what the
// served run saw on the wire and in the server's StatsDump.

#include <cstdint>
#include <string>
#include <vector>

#include "drive.h"
#include "workload.h"

namespace servebench {

/// What the client saw during the served phase, plus the server's dump.
struct ServedCounters {
  uint64_t responses = 0;
  uint64_t bytes = 0;
  int64_t cpu_ns = 0;  ///< Server CPU time in the measured phase.
  std::string stats_dump;
};

/// Every per-layer metric of BENCHMARK.json, for workload `w` over the
/// database in `facts` (the generated `db`).
std::vector<Metric> LayerMetrics(const Workload& w, const Db& db,
                                 const std::string& facts,
                                 const std::vector<WriteOp>& pool,
                                 const ServedCounters& served);

}  // namespace servebench

#endif  // SERVEBENCH_LAYERS_H_
