#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>

#include "fgq/db/database.h"
#include "fgq/db/index.h"
#include "fgq/db/loader.h"
#include "fgq/db/snapshot.h"
#include "fgq/eval/engine.h"
#include "fgq/eval/enumerate.h"
#include "fgq/net/protocol.h"
#include "fgq/query/parser.h"
#include "fgq/serve/plan_cache.h"
#include "fgq/serve/query_service.h"
#include "fgq/trace/trace.h"
#include "fgq/vm/compile.h"
#include "fgq/vm/vm.h"
#include "wire.h"

namespace servebench {

namespace {

using fgq::SemiringId;
using fgq::net::Verb;

constexpr SemiringId kFolds[] = {SemiringId::kBoolean, SemiringId::kMinPlus,
                                 SemiringId::kMaxMin, SemiringId::kTopK};

/// Median wall time of `reps` calls of `f`, in ns.
template <typename F>
double MedianNs(int reps, F&& f) {
  std::vector<double> t;
  for (int i = 0; i < reps; ++i) {
    const int64_t t0 = NowNs();
    f();
    t.push_back(static_cast<double>(NowNs() - t0));
  }
  std::sort(t.begin(), t.end());
  return t[t.size() / 2];
}

/// Per-call time of a cheap `f`: the median of 5 timed batches, each
/// repeated until it lasts at least 2 ms.
template <typename F>
double PerCallNs(F&& f) {
  int batch = 1;
  while (true) {
    const int64_t t0 = NowNs();
    for (int i = 0; i < batch; ++i) f();
    if (NowNs() - t0 >= 2000000 || batch >= (1 << 20)) break;
    batch *= 2;
  }
  return MedianNs(5, [&] {
           for (int i = 0; i < batch; ++i) f();
         }) /
         batch;
}

fgq::ConjunctiveQuery Parse(Kind k) {
  auto q = fgq::ParseConjunctiveQuery(KindText(k));
  if (!q.ok()) {
    std::fprintf(stderr, "servebench: %s\n", q.status().ToString().c_str());
    std::abort();
  }
  return std::move(q).value();
}

fgq::Database Load(const std::string& facts) {
  fgq::Database db;
  fgq::Dictionary dict;
  const fgq::Status st = fgq::LoadFactsFromFile(facts, &db, &dict);
  if (!st.ok()) {
    std::fprintf(stderr, "servebench: %s\n", st.ToString().c_str());
    std::abort();
  }
  return db;
}

fgq::ServiceRequest ServiceRequestFor(const MixEntry& e) {
  fgq::ServiceRequest r;
  r.query = Parse(e.kind);
  r.verb = e.verb == Verb::kCount ? fgq::ServeVerb::kCount
                                  : fgq::ServeVerb::kRows;
  r.limit = e.verb == Verb::kEnumerateLimit ? e.limit : 0;
  r.semiring = e.semiring;
  return r;
}

/// The wire response of a served rows answer (for the encoder).
fgq::net::Response WireRows(const fgq::ServiceResponse& s) {
  fgq::net::Response r;
  r.text = s.algorithm;
  r.epoch = s.epoch;
  const fgq::Relation& rel = *s.answers;
  r.arity = static_cast<uint32_t>(rel.arity());
  r.nrows = rel.NumTuples();
  r.values.resize(r.nrows * r.arity);
  for (size_t i = 0; i < rel.NumTuples(); ++i) {
    rel.CopyRow(i, r.values.data() + i * r.arity);
  }
  return r;
}

/// Sums `key=value` fields of the StatsDump lines that start with
/// `prefix`, over every shard.
double DumpSum(const std::string& dump, const std::string& prefix,
               const std::string& key) {
  std::istringstream in(dump);
  std::string line;
  double total = 0;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const size_t at = line.find(" " + key + "=");
    if (at != std::string::npos) total += std::stod(line.substr(at + key.size() + 2));
  }
  return total;
}

/// Sums the StatsDump counter `name` over every shard.
double DumpCounter(const std::string& dump, const std::string& name) {
  std::istringstream in(dump);
  std::string line;
  const std::string prefix = "counter " + name + " ";
  double total = 0;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) == 0) total += std::stod(line.substr(prefix.size()));
  }
  return total;
}

fgq::MutationBatch Batch(const WriteOp& op) {
  fgq::RelationMutation m;
  m.relation = op.relation;
  (op.is_delete ? m.deletes : m.inserts).push_back(op.row);
  return {m};
}

}  // namespace

std::vector<Metric> LayerMetrics(const Workload& w, const Db& gen,
                                 const std::string& facts,
                                 const std::vector<WriteOp>& pool,
                                 const ServedCounters& served) {
  std::vector<Metric> m;
  const std::vector<int> round = RoundOrder(w, 1, 0, 1);
  std::vector<fgq::net::Request> wire;
  for (size_t i = 0; i < round.size(); ++i) {
    wire.push_back(MakeRequest(w.mix[round[i]], i + 1));
    if (w.write_every != 0 && i % w.write_every == w.write_every - 1) {
      wire.push_back(MakeWrite(WriteAt(pool, i / w.write_every), i + 1));
    }
  }

  // --- db: load, snapshot writes, hash-index build and probe.
  fgq::Database db;
  const double load_ns = MedianNs(3, [&] { db = Load(facts); });
  m.push_back({"db.load_ms", "ms", load_ns / 1e6});
  {
    fgq::SnapshotStore store(db);
    std::vector<WriteOp> writes;
    for (uint64_t i = 0; i < 200; ++i) writes.push_back(WriteAt(pool, i));
    const int64_t t0 = NowNs();
    for (const WriteOp& op : writes) (void)store.Apply(Batch(op));
    m.push_back({"db.apply_us", "us",
                 static_cast<double>(NowNs() - t0) / writes.size() / 1e3});
  }
  {
    double build_ns = 0;
    size_t rows = 0;
    for (const std::string& name : MixRelations()) {
      const fgq::Relation* rel = *db.Find(name);
      build_ns += MedianNs(3, [&] { fgq::HashIndex idx(*rel, {0}); });
      rows += rel->NumTuples();
    }
    m.push_back({"db.index_build_ns_per_row", "ns/row", build_ns / rows});
    const fgq::HashIndex e2(**db.Find("E2"), {0});
    const Rel& e1 = gen.Get("E1");
    size_t hits = 0;
    const double probe_ns = MedianNs(5, [&] {
      for (size_t i = 0; i < e1.rows(); ++i) {
        hits += e2.LookupKey(e1.row(i) + 1).size();
      }
    });
    // Using the sum keeps the compiler from dropping the inlined probes.
    if (hits == 0) std::abort();
    m.push_back({"db.index_probe_ns", "ns/probe", probe_ns / e1.rows()});
  }

  // --- net codec, query parse, classification and plan keying, on the
  // requests of one round.
  {
    std::vector<std::string> frames;
    for (const auto& r : wire) {
      frames.emplace_back();
      fgq::net::EncodeRequest(r, &frames.back());
    }
    fgq::net::Request out;
    const double ns = PerCallNs([&] {
      for (const std::string& f : frames) {
        (void)fgq::net::DecodeRequest(
            reinterpret_cast<const uint8_t*>(f.data()) +
                fgq::net::kFrameHeaderBytes,
            f.size() - fgq::net::kFrameHeaderBytes, &out);
      }
    });
    m.push_back({"net.decode_request_ns", "ns", ns / frames.size()});
  }
  std::vector<fgq::ConjunctiveQuery> queries;
  for (int e : round) queries.push_back(Parse(w.mix[e].kind));
  m.push_back({"query.parse_us", "us", PerCallNs([&] {
                 for (int e : round) {
                   (void)fgq::ParseConjunctiveQuery(KindText(w.mix[e].kind));
                 }
               }) / round.size() / 1e3});
  m.push_back({"hypergraph.classify_us", "us", PerCallNs([&] {
                 for (const auto& q : queries) (void)fgq::Engine::Classify(q);
               }) / round.size() / 1e3});
  fgq::SnapshotStore store(db);
  {
    const auto snap = store.Current();
    m.push_back(
        {"serve.plan_key_us", "us", PerCallNs([&] {
           for (size_t i = 0; i < round.size(); ++i) {
             const MixEntry& e = w.mix[round[i]];
             const uint8_t s = static_cast<uint8_t>(
                 e.verb == Verb::kCount ? e.semiring : SemiringId::kCounting);
             (void)fgq::MakeSnapshotPlanKey(
                 queries[i], *snap, static_cast<uint8_t>(fgq::ExecTier::kAuto),
                 s);
           }
         }) / round.size() / 1e3});
  }

  // --- serve: cached and cold execution through QueryService::Submit,
  // traced and untraced; the server's own counters from its StatsDump.
  {
    fgq::ServiceOptions opts;
    opts.num_workers = 1;
    fgq::QueryService service(&store, opts);
    auto submit = [&](const MixEntry& e, fgq::TraceContext* trace) {
      fgq::ServiceRequest r = ServiceRequestFor(e);
      r.trace = trace;
      return service.Submit(std::move(r)).get();
    };
    std::vector<fgq::ServiceResponse> last;
    for (int e : round) last.push_back(submit(w.mix[e], nullptr));  // Warm.
    // Traced and untraced passes alternate which goes first; each figure
    // is the median over 7 passes.
    std::vector<double> traced, plain;
    for (int pass = 0; pass < 7; ++pass) {
      for (bool with_trace : {pass % 2 == 0, pass % 2 != 0}) {
        double sum = 0;
        size_t n = 0;
        for (size_t i = 0; i < round.size(); ++i) {
          fgq::TraceContext trace;
          fgq::ServiceResponse r =
              submit(w.mix[round[i]], with_trace ? &trace : nullptr);
          if (!r.cache_hit) continue;
          sum += static_cast<double>(r.exec_time.count());
          ++n;
          if (!with_trace) last[i] = std::move(r);
        }
        (with_trace ? traced : plain).push_back(sum / std::max<size_t>(n, 1));
      }
    }
    std::sort(traced.begin(), traced.end());
    std::sort(plain.begin(), plain.end());
    m.push_back({"serve.exec_hit_us", "us", traced[3] / 1e3});
    m.push_back({"serve.trace_overhead_us", "us", (traced[3] - plain[3]) / 1e3});
    double miss = 0;
    int weight = 0;
    for (const MixEntry& e : w.mix) {
      fgq::TraceContext trace;
      service.cache().Clear();
      miss += e.weight * static_cast<double>(submit(e, &trace).exec_time.count());
      weight += e.weight;
    }
    m.push_back({"serve.exec_miss_ms", "ms", miss / weight / 1e6});

    // net encode: the rows answers of the last cached pass.
    std::vector<std::pair<fgq::net::Response, Verb>> rows;
    uint64_t nrows = 0;
    for (size_t i = 0; i < round.size(); ++i) {
      if (w.mix[round[i]].verb == Verb::kCount || !last[i].answers) continue;
      rows.emplace_back(WireRows(last[i]), w.mix[round[i]].verb);
      nrows += rows.back().first.nrows;
    }
    std::string buf;
    const double enc_ns = MedianNs(3, [&] {
      for (const auto& [r, verb] : rows) {
        buf.clear();
        fgq::net::EncodeResponse(r, verb, &buf);
      }
    });
    m.push_back({"net.encode_response_ns_per_row", "ns/row",
                 enc_ns / std::max<uint64_t>(nrows, 1)});
  }
  const double hits = DumpSum(served.stats_dump, "cache ", "hits");
  const double misses = DumpSum(served.stats_dump, "cache ", "misses");
  m.push_back({"serve.cache_hit_rate", "ratio", hits / (hits + misses)});
  const std::string qw = "histogram serve.queue_wait_us ";
  const double waits = DumpSum(served.stats_dump, qw, "count");
  // Per-shard means weighted by their counts.
  double wait_total = 0;
  {
    std::istringstream in(served.stats_dump);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(qw, 0) != 0) continue;
      wait_total += DumpSum(line, qw, "count") * DumpSum(line, qw, "mean");
    }
  }
  m.push_back({"serve.queue_wait_us", "us", wait_total / std::max(waits, 1.0)});
  m.push_back({"net.server_cpu_us_per_req", "us",
               served.cpu_ns / 1e3 / std::max<uint64_t>(served.responses, 1)});
  m.push_back({"net.response_bytes", "B",
               static_cast<double>(served.bytes) /
                   std::max<uint64_t>(served.responses, 1)});
  m.push_back({"net.frames_per_flush", "frames",
               DumpCounter(served.stats_dump, "net.flushed_frames") /
                   std::max(DumpCounter(served.stats_dump, "net.flushes"), 1.0)});

  // --- eval and vm: the free-connex queries of the mix, prepared by the
  // Theorem 4.6 preprocessing, enumerated by the interpreter's cursor and
  // by the compiled program.
  const Kind fc_kinds[] = {w.mix[0].kind, Kind::kFigure1};
  double prep_ns = 0, first_k_ns = 0, enum_ns = 0, compile_ns = 0;
  double cursor_ns = 0, count_ns = 0, fold_ns[4] = {0, 0, 0, 0};
  uint64_t tuples = 0, survivors = 0, scanned = 0, answers = 0;
  for (Kind k : fc_kinds) {
    const fgq::ConjunctiveQuery q = Parse(k);
    for (const fgq::Atom& a : q.atoms()) tuples += (*db.Find(a.relation))->NumTuples();
    std::shared_ptr<const fgq::IndexedFreeConnexPlan> plan;
    uint64_t q_survivors = 0, q_scanned = 0;
    prep_ns += MedianNs(3, [&] {
      fgq::TraceContext trace;
      const fgq::ExecContext ctx = fgq::ExecContext().WithTrace(&trace);
      fgq::FreeConnexPlan p = *fgq::BuildFreeConnexPlan(q, db, ctx);
      q_survivors = 0;
      for (const auto& node : p.nodes) q_survivors += node.rel.NumTuples();
      plan = *fgq::IndexFreeConnexPlan(std::move(p), q.head(), ctx);
      q_scanned = trace.counter("tuples_scanned");
    });
    survivors += q_survivors;
    scanned += q_scanned;
    fgq::Tuple t;
    first_k_ns += PerCallNs([&] {
      auto cur = fgq::MakePlanEnumerator(plan);
      for (int i = 0; i < 32 && cur->Next(&t); ++i) {
      }
    });
    uint64_t n = 0;
    enum_ns += MedianNs(3, [&] {
      auto cur = fgq::MakePlanEnumerator(plan);
      n = 0;
      while (cur->Next(&t)) ++n;
    });
    answers += n;
    std::shared_ptr<const fgq::vm::Program> program;
    compile_ns += PerCallNs([&] {
      program = fgq::vm::CompilePlan(plan, q).program;
    });
    cursor_ns += MedianNs(3, [&] {
      auto cur = fgq::vm::MakeProgramCursor(program);
      while (cur->Next(&t)) {
      }
    });
    const fgq::CancelToken cancel;
    count_ns += MedianNs(3, [&] { (void)fgq::vm::RunCount(*program, cancel); });
    for (int f = 0; f < 4; ++f) {
      fold_ns[f] += MedianNs(3, [&] {
        (void)fgq::vm::RunSemiring(*program, kFolds[f], cancel);
      });
    }
  }
  m.push_back({"eval.prepare_ms.free-connex", "ms", prep_ns / 2 / 1e6});
  {
    const fgq::ConjunctiveQuery path2 = Parse(Kind::kPath2);
    const fgq::Engine engine;
    const double ga_ns = MedianNs(3, [&] {
      (void)engine.Run(fgq::ExecRequest(path2, db));
    });
    m.push_back({"eval.prepare_ms.general-acyclic", "ms", ga_ns / 1e6});
    m.push_back({"eval.prepare_ns_per_tuple", "ns/tuple", prep_ns / tuples});
    m.push_back({"eval.semijoin_survivor_ratio", "ratio",
                 static_cast<double>(survivors) / std::max<uint64_t>(scanned, 1)});
    m.push_back({"eval.first_k_us", "us", first_k_ns / 2 / 1e3});
    m.push_back({"eval.enum_ns_per_answer", "ns/answer", enum_ns / answers});
    m.push_back({"vm.compile_us", "us", compile_ns / 2 / 1e3});
    m.push_back({"vm.cursor_ns_per_answer", "ns/answer", cursor_ns / answers});
    m.push_back({"vm.count_ns_per_answer", "ns/answer", count_ns / answers});
    for (int f = 0; f < 4; ++f) {
      m.push_back({std::string("vm.fold_ns_per_answer.") +
                       fgq::SemiringName(kFolds[f]),
                   "ns/answer", fold_ns[f] / answers});
    }
    // --- count: the join-tree sum-product DP on the general-acyclic
    // query, once per semiring.
    for (SemiringId id : {SemiringId::kCounting, SemiringId::kBoolean,
                          SemiringId::kMinPlus, SemiringId::kMaxMin,
                          SemiringId::kTopK}) {
      fgq::ExecRequest req(path2, db);
      req.semiring = id;
      const double ns = MedianNs(3, [&] { (void)engine.SumProduct(req); });
      m.push_back({std::string("count.dp_ms.") + fgq::SemiringName(id), "ms",
                   ns / 1e6});
    }
  }
  return m;
}

}  // namespace servebench
