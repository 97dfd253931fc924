#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "fgq/check/reference.h"
#include "fgq/count/acq_count.h"
#include "fgq/eval/engine.h"
#include "fgq/query/parser.h"
#include "fgq/serve/query_service.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto q = ParseConjunctiveQuery(text);
  EXPECT_TRUE(q.ok()) << q.status();
  return *q;
}

struct GoldenCase {
  const char* text;
  QueryClass expected;
};

// A golden corpus pinning Engine::Classify across all seven classes. The
// service keys admission (heavy vs light lane) and metrics on this
// classification, so silent drift here would change serving behavior.
const GoldenCase kGolden[] = {
    // Boolean acyclic: no free variables, acyclic body.
    {"Q() :- E(x, y).", QueryClass::kBooleanAcyclic},
    {"Q() :- E(x, y), F(y, z).", QueryClass::kBooleanAcyclic},
    // Free-connex: quantifier-free queries, single atoms, and heads whose
    // variables form a connected extension of the join tree.
    {"Q(x, y) :- E(x, y).", QueryClass::kFreeConnexAcyclic},
    {"Q(x) :- E(x, y), B(y).", QueryClass::kFreeConnexAcyclic},
    {"Q(x, y, z) :- E(x, y), F(y, z).", QueryClass::kFreeConnexAcyclic},
    // General acyclic: the path query with existential middle (the
    // paper's canonical non-free-connex example).
    {"Q(x, z) :- E(x, y), F(y, z).", QueryClass::kGeneralAcyclic},
    {"Q(x, w) :- E(x, y), F(y, z), G(z, w).", QueryClass::kGeneralAcyclic},
    // Acyclic with only disequalities (ACQ_!=, Theorem 4.20 territory).
    {"Q(x, y) :- E(x, y), x != y.", QueryClass::kAcyclicDisequalities},
    // Any order comparison puts the query in the W[1]-hard fragment.
    {"Q(x, y) :- E(x, y), x < y.", QueryClass::kAcyclicOrderComparisons},
    {"Q(x, y) :- E(x, y), x <= y.", QueryClass::kAcyclicOrderComparisons},
    {"Q(x, y) :- E(x, y), x < y, x != y.",
     QueryClass::kAcyclicOrderComparisons},
    // Negation dominates every other feature.
    {"Q(x) :- E(x, y), not B(y).", QueryClass::kNegated},
    {"Q() :- E(x, y), not E(y, x).", QueryClass::kNegated},
    // Cyclic: triangle and 4-cycle.
    {"Q(x) :- E(x, y), F(y, z), G(z, x).", QueryClass::kCyclic},
    {"Q() :- E(x, y), F(y, z), G(z, w), H(w, x).", QueryClass::kCyclic},
};

TEST(EngineClassify, GoldenCorpus) {
  for (const GoldenCase& c : kGolden) {
    EXPECT_EQ(Engine::Classify(Q(c.text)), c.expected)
        << c.text << " expected " << QueryClassName(c.expected) << " got "
        << QueryClassName(Engine::Classify(Q(c.text)));
  }
}

TEST(EngineClassify, CoversAllSevenClasses) {
  std::vector<bool> seen(7, false);
  for (const GoldenCase& c : kGolden) {
    seen[static_cast<size_t>(c.expected)] = true;
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "class " << i << " ("
                         << QueryClassName(static_cast<QueryClass>(i))
                         << ") missing from the golden corpus";
  }
}

TEST(EngineClassify, NamesAreStable) {
  EXPECT_STREQ(QueryClassName(QueryClass::kBooleanAcyclic),
               "boolean-acyclic");
  EXPECT_STREQ(QueryClassName(QueryClass::kFreeConnexAcyclic), "free-connex");
  EXPECT_STREQ(QueryClassName(QueryClass::kGeneralAcyclic), "general-acyclic");
  EXPECT_STREQ(QueryClassName(QueryClass::kAcyclicDisequalities),
               "acyclic-disequalities");
  EXPECT_STREQ(QueryClassName(QueryClass::kAcyclicOrderComparisons),
               "acyclic-order-comparisons");
  EXPECT_STREQ(QueryClassName(QueryClass::kNegated), "negated");
  EXPECT_STREQ(QueryClassName(QueryClass::kCyclic), "cyclic");
}

// ---- One tier rule -----------------------------------------------------------

/// A small random database over every relation the golden corpus names.
Database GoldenDb() {
  Rng rng(7);
  Database db;
  for (const char* name : {"E", "F", "G", "H"}) {
    db.PutRelation(RandomRelation(name, 2, 40, 8, &rng));
  }
  db.PutRelation(RandomRelation("B", 1, 4, 8, &rng));
  db.DeclareDomainSize(8);
  return db;
}

std::set<Tuple> Rows(const Relation& r) {
  std::set<Tuple> out;
  for (size_t i = 0; i < r.NumTuples(); ++i) {
    out.insert(r.arity() == 0 ? Tuple{} : r.Row(i).ToTuple());
  }
  return out;
}

// Engine and QueryService prepare through the same Engine::Prepare, so at
// every tier they must name the same algorithm; and every Engine call
// must agree with the reference evaluator.
TEST(EngineTierRule, EngineAndServiceAgreeAtEveryTier) {
  const Database db = GoldenDb();
  const Engine engine;
  ServiceOptions opts;
  opts.num_workers = 1;
  QueryService service(&db, opts);
  for (const GoldenCase& c : kGolden) {
    const ConjunctiveQuery q = Q(c.text);
    Result<Relation> ref = ReferenceEvaluate(q, db);
    ASSERT_TRUE(ref.ok()) << c.text << ": " << ref.status();
    for (ExecTier tier :
         {ExecTier::kInterpret, ExecTier::kAuto, ExecTier::kCompile}) {
      const std::string where = std::string(c.text) + " at " +
                                ExecTierName(tier);
      ExecRequest req(q, db);
      req.tier = tier;
      Result<ExecResult> run = engine.Run(req);
      ASSERT_TRUE(run.ok()) << where << ": " << run.status();
      EXPECT_EQ(Rows(run->answers), Rows(*ref)) << where;

      ServiceRequest sreq;
      sreq.query = q;
      sreq.tier = tier;
      ServiceResponse resp = service.Submit(std::move(sreq)).get();
      ASSERT_TRUE(resp.status.ok()) << where << ": " << resp.status;
      EXPECT_EQ(run->algorithm, resp.algorithm) << where;
      EXPECT_EQ(Rows(*resp.answers), Rows(*ref)) << where;

      Result<std::unique_ptr<AnswerEnumerator>> e = engine.Enumerate(req);
      ASSERT_TRUE(e.ok()) << where << ": " << e.status();
      std::set<Tuple> enumerated;
      size_t steps = 0;
      Tuple t;
      while ((*e)->Next(&t)) {
        enumerated.insert(t);
        ++steps;
      }
      EXPECT_EQ(steps, enumerated.size()) << where << ": repeated answer";
      EXPECT_EQ(enumerated, Rows(*ref)) << where;

      for (uint8_t id = 0; id < kNumSemirings; ++id) {
        req.semiring = static_cast<SemiringId>(id);
        Result<SemiringValue> got = engine.SumProduct(req);
        Result<SemiringValue> want = FoldAnswersSemiring(q, *ref, req.semiring);
        ASSERT_TRUE(got.ok()) << where << ": " << got.status();
        ASSERT_TRUE(want.ok()) << where << ": " << want.status();
        EXPECT_EQ(*got, *want) << where << " under "
                               << SemiringName(req.semiring);
      }
    }
  }
}

}  // namespace
}  // namespace fgq
