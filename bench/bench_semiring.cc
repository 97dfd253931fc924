// Semiring benchmarks: the count verb under every SemiringId, cached
// serve path and raw VM stream (EXPERIMENTS.md E29).
//
// The acceptance bar for the generalized DP is that a cached-serve
// semiring aggregate stays within 1.3x of the fused (+, x) counting
// path. The serving layer keys one cache entry per (query, data state,
// tier) for every semiring and memoizes each semiring's aggregate on it,
// counting included: the first count request under a semiring folds the
// shared preparation, later ones read the memo. So BM_ServeCount* times
// the two sides of the bar: BM_ServeCountCounting empties the entry's
// memo outside the timing before every request (serve_fixture.h), so
// each timed request runs the fused counting stream (vm::RunCount) on
// the shared program — the baseline; every other row times steady-state
// requests under its semiring, i.e. memo hits after one warm-up fold.
// BM_VmCount* isolates the raw VM stream, where the weighted instances
// legitimately pay for reading every row's weight (counting collapses
// the innermost loop to span arithmetic).

#include <benchmark/benchmark.h>

#include "bench_json.h"
#include "serve_fixture.h"

#include "fgq/count/semiring.h"
#include "fgq/serve/query_service.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

// --- Cached serve: count verb per semiring -------------------------------

// BM_ServeCachedCountCompiled (bench_service.cc) generalized by semiring.
// The counting row is the baseline the other rows are gated against
// (tools/check_bench_regression.py --semiring-ratio): it times the fused
// counting fold, on an emptied memo each iteration. The other rows warm
// the shared entry and their memo slot once, then time steady-state
// count requests.
void ServeCountUnder(benchmark::State& state, SemiringId id) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Database db = Figure1Database(tuples, static_cast<Value>(tuples / 4), &rng);
  ConjunctiveQuery q = Figure1Query();
  ServiceOptions opts;
  opts.num_workers = 1;
  QueryService service(&db, opts);
  {
    ServiceRequest warm;
    warm.query = q;
    warm.verb = ServeVerb::kCount;
    warm.tier = ExecTier::kCompile;
    warm.semiring = id;
    service.Submit(std::move(warm)).get();
  }
  const PlanKey key = benchserve::LegacyPlanKey(q, db, ExecTier::kCompile);
  for (auto _ : state) {
    if (id == SemiringId::kCounting) {
      state.PauseTiming();
      if (!benchserve::ForgetAggregates(service, key)) {
        state.SkipWithError("no cached entry to fold");
        break;
      }
      state.ResumeTiming();
    }
    ServiceRequest req;
    req.query = q;
    req.verb = ServeVerb::kCount;
    req.tier = ExecTier::kCompile;
    req.semiring = id;
    ServiceResponse resp = service.Submit(std::move(req)).get();
    if (!resp.status.ok()) state.SkipWithError(resp.status.ToString().c_str());
    if (!resp.cache_hit) state.SkipWithError("timed a preparation");
    benchmark::DoNotOptimize(resp.count);
    benchmark::DoNotOptimize(resp.semiring_value);
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["semiring"] = static_cast<double>(id);
}

void BM_ServeCountCounting(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kCounting);
}
BENCHMARK(BM_ServeCountCounting)->Arg(10000)->Arg(100000);

void BM_ServeCountBoolean(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kBoolean);
}
BENCHMARK(BM_ServeCountBoolean)->Arg(10000)->Arg(100000);

void BM_ServeCountMinPlus(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kMinPlus);
}
BENCHMARK(BM_ServeCountMinPlus)->Arg(10000)->Arg(100000);

void BM_ServeCountMaxMin(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kMaxMin);
}
BENCHMARK(BM_ServeCountMaxMin)->Arg(10000)->Arg(100000);

void BM_ServeCountTopK(benchmark::State& state) {
  ServeCountUnder(state, SemiringId::kTopK);
}
BENCHMARK(BM_ServeCountTopK)->Arg(10000)->Arg(100000);

// --- Raw VM stream: RunCount vs RunSumProduct ----------------------------

// Compiles Figure 1's free-connex query once and replays the count
// stream; no service, no cache, no allocation outside the aggregate.
void VmCountUnder(benchmark::State& state, SemiringId id) {
  const size_t tuples = static_cast<size_t>(state.range(0));
  Rng rng(7);
  Database db = Figure1Database(tuples, static_cast<Value>(tuples / 4), &rng);
  ConjunctiveQuery q = Figure1Query();
  Result<vm::Compilation> comp = vm::CompileQuery(q, db);
  if (!comp.ok() || !comp->ok()) {
    state.SkipWithError("Figure1Query did not compile");
    return;
  }
  CancelToken cancel;
  for (auto _ : state) {
    if (id == SemiringId::kCounting) {
      Result<uint64_t> n = vm::RunCount(*comp->program, cancel, nullptr);
      if (!n.ok()) state.SkipWithError(n.status().ToString().c_str());
      benchmark::DoNotOptimize(*n);
    } else {
      Result<SemiringValue> v =
          vm::RunSemiring(*comp->program, id, cancel, nullptr);
      if (!v.ok()) state.SkipWithError(v.status().ToString().c_str());
      benchmark::DoNotOptimize(v->scalar);
    }
  }
  state.counters["tuples"] = static_cast<double>(tuples);
  state.counters["semiring"] = static_cast<double>(id);
}

void BM_VmCountCounting(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kCounting);
}
BENCHMARK(BM_VmCountCounting)->Arg(100000);

void BM_VmCountBoolean(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kBoolean);
}
BENCHMARK(BM_VmCountBoolean)->Arg(100000);

void BM_VmCountMinPlus(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kMinPlus);
}
BENCHMARK(BM_VmCountMinPlus)->Arg(100000);

void BM_VmCountMaxMin(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kMaxMin);
}
BENCHMARK(BM_VmCountMaxMin)->Arg(100000);

void BM_VmCountTopK(benchmark::State& state) {
  VmCountUnder(state, SemiringId::kTopK);
}
BENCHMARK(BM_VmCountTopK)->Arg(100000);

}  // namespace
}  // namespace fgq

FGQ_BENCH_JSON_MAIN()
