#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fgq/eval/diseq.h"
#include "fgq/eval/engine.h"
#include "fgq/eval/oracle.h"
#include "fgq/query/parser.h"
#include "fgq/util/random.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

ConjunctiveQuery Q(const std::string& text) {
  auto r = ParseConjunctiveQuery(text);
  EXPECT_TRUE(r.ok()) << r.status();
  return *r;
}

// ---- Covers machinery (Definitions 4.16-4.19) ---------------------------------

/// The exact table of Example 4.19 (columns f1..f4 over rows a..f).
FunctionTable Example419Table() {
  FunctionTable t;
  t.k = 4;
  t.rows = {
      {1, 2, 4, 5},  // a
      {1, 5, 1, 5},  // b
      {3, 2, 4, 5},  // c
      {3, 5, 3, 5},  // d
      {5, 2, 4, 5},  // e
      {2, 2, 4, 5},  // f
  };
  return t;
}

TEST(Covers, DefinitionBasics) {
  FunctionTable t = Example419Table();
  // (⊔,⊔,⊔,5) covers: every row has f4 = 5.
  EXPECT_TRUE(CoversTable(t, {kBlank, kBlank, kBlank, 5}));
  // (1,2,3,⊔): a,b hit on f1; c,d hit? c: f1=3 no, f2=2 yes; d: f1=3? no —
  // d = (3,5,3,5): f3=3 hit. e: f2=2. f: f2=2. Covers.
  EXPECT_TRUE(CoversTable(t, {1, 2, 3, kBlank}));
  // (1,2,⊔,⊔) misses d = (3,5,3,5).
  EXPECT_FALSE(CoversTable(t, {1, 2, kBlank, kBlank}));
  // All-blank covers nothing (unless the table is empty).
  EXPECT_FALSE(CoversTable(t, {kBlank, kBlank, kBlank, kBlank}));
  FunctionTable empty;
  empty.k = 4;
  EXPECT_TRUE(CoversTable(empty, {kBlank, kBlank, kBlank, kBlank}));
}

TEST(Covers, MoreGeneralOrder) {
  EXPECT_TRUE(MoreGeneral({2, 1, kBlank}, {2, 1, 1}));
  EXPECT_TRUE(MoreGeneral({kBlank, kBlank}, {1, 2}));
  EXPECT_FALSE(MoreGeneral({2, 1, 1}, {2, 1, kBlank}));
  EXPECT_FALSE(MoreGeneral({3, 1}, {2, 1}));
  EXPECT_TRUE(MoreGeneral({2, 1}, {2, 1}));  // Reflexive.
}

TEST(Covers, Example419MinimalCoverSet) {
  // The paper: the minimal cover set has size 4:
  // {(1,2,3,⊔), (3,2,1,⊔), (⊔,5,4,⊔), (⊔,⊔,⊔,5)}.
  std::vector<Tuple> minimal = MinimalCovers(Example419Table());
  std::sort(minimal.begin(), minimal.end());
  std::vector<Tuple> expected = {
      {1, 2, 3, kBlank},
      {3, 2, 1, kBlank},
      {kBlank, 5, 4, kBlank},
      {kBlank, kBlank, kBlank, 5},
  };
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(minimal, expected);
}

TEST(Covers, MinimalCoverCountBoundedByKFactorial) {
  Rng rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    FunctionTable t;
    t.k = 3;
    size_t rows = 1 + rng.Below(8);
    for (size_t r = 0; r < rows; ++r) {
      t.rows.push_back({static_cast<Value>(rng.Below(3)),
                        static_cast<Value>(rng.Below(3)),
                        static_cast<Value>(rng.Below(3))});
    }
    EXPECT_LE(MinimalCovers(t).size(), 6u) << "k! bound violated";  // 3! = 6.
  }
}

TEST(Covers, MinimalCoversAreCoversAndMinimal) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    FunctionTable t;
    t.k = 3;
    size_t rows = 1 + rng.Below(6);
    for (size_t r = 0; r < rows; ++r) {
      t.rows.push_back({static_cast<Value>(rng.Below(3)),
                        static_cast<Value>(rng.Below(3)),
                        static_cast<Value>(rng.Below(3))});
    }
    // Alphabet: all values in the table.
    std::vector<Value> range;
    for (size_t c = 0; c < t.k; ++c) {
      for (Value v : t.ColumnValues(c)) {
        if (std::find(range.begin(), range.end(), v) == range.end()) {
          range.push_back(v);
        }
      }
    }
    std::vector<Tuple> all = AllCoversBruteForce(t, range);
    std::vector<Tuple> minimal = MinimalCovers(t);
    for (const Tuple& m : minimal) {
      EXPECT_TRUE(CoversTable(t, m));
      // No strictly more general cover exists.
      for (const Tuple& c : all) {
        if (c != m && MoreGeneral(c, m)) {
          ADD_FAILURE() << "non-minimal cover returned";
        }
      }
    }
    // Every brute-force cover is dominated by some minimal cover.
    for (const Tuple& c : all) {
      bool dominated = false;
      for (const Tuple& m : minimal) {
        if (MoreGeneral(m, c)) {
          dominated = true;
          break;
        }
      }
      EXPECT_TRUE(dominated) << "cover not dominated by any minimal cover";
    }
  }
}

TEST(Covers, RepresentativeSetPreservesCovers) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    FunctionTable t;
    t.k = 3;
    size_t rows = 1 + rng.Below(7);
    for (size_t r = 0; r < rows; ++r) {
      t.rows.push_back({static_cast<Value>(rng.Below(3)),
                        static_cast<Value>(rng.Below(3)),
                        static_cast<Value>(rng.Below(3))});
    }
    std::vector<size_t> reps = RepresentativeSet(t);
    FunctionTable sub;
    sub.k = t.k;
    for (size_t r : reps) sub.rows.push_back(t.rows[r]);
    std::vector<Value> range = {0, 1, 2};
    EXPECT_EQ(AllCoversBruteForce(t, range), AllCoversBruteForce(sub, range));
  }
}

TEST(Covers, Example419RepresentativeSet) {
  std::vector<size_t> reps = RepresentativeSet(Example419Table());
  // The paper names {a, b, c, d} (indices 0-3) as a representative set;
  // our recursive procedure must produce a representative set too
  // (possibly a different one). Verify the defining property.
  FunctionTable t = Example419Table();
  FunctionTable sub;
  sub.k = t.k;
  for (size_t r : reps) sub.rows.push_back(t.rows[r]);
  std::vector<Value> range = {1, 2, 3, 4, 5};
  EXPECT_EQ(AllCoversBruteForce(t, range), AllCoversBruteForce(sub, range));
  EXPECT_LE(reps.size(), 24u + 1);  // O(k!) with k = 4.
}

// ---- ACQ_!= evaluation (Theorem 4.20) -----------------------------------------

struct NeqParam {
  std::string query;
  size_t tuples;
  Value domain;
  uint64_t seed;
};

void PrintTo(const NeqParam& p, std::ostream* os) { *os << p.query; }

class NeqSweep : public ::testing::TestWithParam<NeqParam> {};

TEST_P(NeqSweep, MatchesOracle) {
  const NeqParam& p = GetParam();
  Rng rng(p.seed);
  ConjunctiveQuery q = Q(p.query);
  Database db;
  for (const Atom& a : q.atoms()) {
    if (!db.Has(a.relation)) {
      db.PutRelation(
          RandomRelation(a.relation, a.arity(), p.tuples, p.domain, &rng));
    }
  }
  db.DeclareDomainSize(p.domain);
  auto fast = EvaluateAcqNeq(q, db);
  ASSERT_TRUE(fast.ok()) << fast.status();
  auto oracle = EvaluateBacktrack(q, db);
  ASSERT_TRUE(oracle.ok());
  Relation a = *fast;
  Relation b = *oracle;
  a.SortDedup();
  b.SortDedup();
  ASSERT_EQ(a.NumTuples(), b.NumTuples());
  for (size_t i = 0; i < a.NumTuples(); ++i) {
    EXPECT_TRUE(b.Contains(a.Row(i).ToTuple()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    DisequalityInstances, NeqSweep,
    ::testing::Values(
        // Free-free disequality only.
        NeqParam{"Q(x, y) :- R(x, y), x != y.", 30, 5, 91},
        // Quantified z with one disequality to a free variable (fast path).
        NeqParam{"Q(x, y) :- R(x, y), S(y, z), z != x.", 30, 5, 92},
        // Quantified z with two disequalities.
        NeqParam{"Q(x, y) :- R(x, y), S(y, z), z != x, z != y.", 30, 4, 93},
        // Two quantified variables, each in its own atom.
        NeqParam{"Q(x, y) :- R(x, y), S(y, z), T(x, w), z != x, w != y.", 25,
                 4, 94},
        // Mixed with free-free.
        NeqParam{"Q(x, y) :- R(x, y), S(y, z), z != x, x != y.", 30, 4, 95},
        // Fallback shape (quantified-quantified disequality): oracle path.
        NeqParam{"Q(x) :- R(x, y), S(x, z), y != z.", 20, 4, 96}));

TEST(NeqEnumerator, NoDuplicatesAndCorrectOnSmallWorld) {
  Database db;
  Relation r("R", 2), s("S", 2);
  for (Value i = 0; i < 4; ++i) {
    for (Value j = 0; j < 4; ++j) {
      r.Add({i, j});
      s.Add({i, j});
    }
  }
  db.PutRelation(r);
  db.PutRelation(s);
  ConjunctiveQuery q = Q("Q(x, y) :- R(x, y), S(y, z), z != x, z != y.");
  auto e = MakeNeqEnumerator(q, db);
  ASSERT_TRUE(e.ok()) << e.status();
  std::set<Tuple> seen;
  Tuple t;
  while ((*e)->Next(&t)) {
    EXPECT_TRUE(seen.insert(t).second);
  }
  // Domain {0..3}: for every (x, y) there are 4 z-values, at most 2
  // excluded, so every pair is an answer.
  EXPECT_EQ(seen.size(), 16u);
}

TEST(NeqEnumerator, WitnessExhaustionExcludesAnswers) {
  // S(y, z) has exactly one z per y; z != x kills pairs where that z == x.
  Database db;
  Relation r("R", 2), s("S", 2);
  r.Add({0, 1});
  r.Add({2, 1});
  s.Add({1, 0});  // Only witness for y=1 is z=0.
  db.PutRelation(r);
  db.PutRelation(s);
  ConjunctiveQuery q = Q("Q(x, y) :- R(x, y), S(y, z), z != x.");
  auto res = EvaluateAcqNeq(q, db);
  ASSERT_TRUE(res.ok());
  // (0,1) excluded (z would have to be 0 = x); (2,1) survives.
  EXPECT_EQ(res->NumTuples(), 1u);
  EXPECT_TRUE(res->Contains({2, 1}));
}

TEST(NeqEnumerator, UnsupportedShapesReportUnsupported) {
  Database db;
  db.PutRelation(Relation("R", 2));
  db.PutRelation(Relation("S", 2));
  // Disequality between two quantified variables.
  auto e = MakeNeqEnumerator(Q("Q(x) :- R(x, y), S(x, z), y != z."), db);
  EXPECT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kUnsupported);
}

// A tripped token stops disequality preparation: Engine::Count (which
// materializes through EvaluateAcqNeq) and Engine::Enumerate (Theorem
// 4.20's enumerator) both report Cancelled instead of an answer.
TEST(NeqEnumerator, TrippedTokenCancelsCountAndEnumerate) {
  const ConjunctiveQuery q = Q("Q(x, z) :- E(x, y), F(y, z), x != z.");
  Rng rng(17);
  Database db;
  db.PutRelation(RandomRelation("E", 2, 500, 100, &rng));
  db.PutRelation(RandomRelation("F", 2, 500, 100, &rng));
  const Engine engine;
  ExecRequest req(q, db);
  ASSERT_TRUE(engine.Count(req).ok());
  req.cancel = CancelToken::Cancellable();
  req.cancel.Cancel();
  Result<BigInt> c = engine.Count(req);
  ASSERT_FALSE(c.ok()) << "counted " << c->ToString();
  EXPECT_EQ(c.status().code(), StatusCode::kCancelled) << c.status();
  Result<std::unique_ptr<AnswerEnumerator>> e = engine.Enumerate(req);
  ASSERT_FALSE(e.ok());
  EXPECT_EQ(e.status().code(), StatusCode::kCancelled) << e.status();
  ExecContext ctx = ExecContext().WithCancel(req.cancel);
  EXPECT_EQ(EvaluateAcqNeq(q, db, ctx).status().code(),
            StatusCode::kCancelled);
  // A shape Theorem 4.20's enumerator serves fails the same way.
  const ConjunctiveQuery fc = Q("Q(x, y) :- E(x, y), F(y, z), x != z.");
  EXPECT_EQ(MakeNeqEnumerator(fc, db, ctx).status().code(),
            StatusCode::kCancelled);
  EXPECT_TRUE(MakeNeqEnumerator(fc, db).ok());
}

TEST(NeqEnumerator, RejectsOrderComparisons) {
  Database db;
  db.PutRelation(Relation("R", 2));
  auto e = MakeNeqEnumerator(Q("Q(x, y) :- R(x, y), x < y."), db);
  EXPECT_FALSE(e.ok());
}

}  // namespace
}  // namespace fgq
