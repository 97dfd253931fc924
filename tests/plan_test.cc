#include <gtest/gtest.h>

#include <set>
#include <string>

#include "fgq/eval/enumerate.h"
#include "fgq/eval/oracle.h"
#include "fgq/eval/prepared.h"
#include "fgq/eval/yannakakis.h"
#include "fgq/hypergraph/hypergraph.h"
#include "fgq/query/parser.h"
#include "fgq/util/random.h"
#include "fgq/workload/generators.h"

namespace fgq {
namespace {

// ---- PreparedAtom ------------------------------------------------------------

TEST(PreparedAtom, ConstantsAndRepeatsResolved) {
  Database db;
  Relation r("R", 3);
  r.Add({1, 1, 5});
  r.Add({1, 2, 5});
  r.Add({2, 2, 5});
  r.Add({1, 1, 6});
  db.PutRelation(r);
  Atom a;
  a.relation = "R";
  a.args = {Term::Var("x"), Term::Var("x"), Term::Const(5)};
  auto pa = PrepareAtom(a, db);
  ASSERT_TRUE(pa.ok()) << pa.status();
  EXPECT_EQ(pa->vars, (std::vector<std::string>{"x"}));
  EXPECT_EQ(pa->rel.NumTuples(), 2u);  // x = 1 and x = 2.
}

// PrepareAtom skips its sort when the source relation is a sorted set;
// that linear path must agree with the sorting path (the same rows in
// arbitrary order) on constants, repeated variables and permuted columns.
TEST(PreparedAtom, LinearPathOverSortedSetMatchesSortingPath) {
  const char* const atoms[] = {
      "Q(x, y, z) :- R(x, y, z).", "Q(x, y) :- R(x, 1, y).",
      "Q(x, y) :- R(x, x, y).",    "Q(x, y) :- R(x, y, x).",
      "Q(x) :- R(2, x, x).",       "Q(x, y, z) :- R(z, y, x).",
      "Q(x, y) :- R(y, x, y).",    "Q(x) :- R(x, 0, 3).",
      "Q() :- R(1, 1, 1).",
  };
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Rng rng(seed);
    Relation bag("R", 3);  // Unsorted, with duplicates.
    for (size_t i = 0; i < 60; ++i) {
      bag.Add({static_cast<Value>(rng.Below(4)),
               static_cast<Value>(rng.Below(4)),
               static_cast<Value>(rng.Below(4))});
    }
    Relation set = bag;
    set.SortDedup();
    Database unsorted_db, sorted_db;
    unsorted_db.PutRelation(bag);
    sorted_db.PutRelation(set);
    for (const char* text : atoms) {
      const Atom a = ParseConjunctiveQuery(text)->atoms()[0];
      Result<PreparedAtom> linear = PrepareAtom(a, sorted_db);
      Result<PreparedAtom> sorting = PrepareAtom(a, unsorted_db);
      ASSERT_TRUE(linear.ok() && sorting.ok()) << text;
      EXPECT_EQ(linear->vars, sorting->vars) << text;
      EXPECT_EQ(linear->rel.NumTuples(), sorting->rel.NumTuples()) << text;
      EXPECT_EQ(linear->rel.ToRowMajor(), sorting->rel.ToRowMajor()) << text;
      EXPECT_EQ(linear->rel.sorted(), sorting->rel.sorted()) << text;
    }
  }
}

TEST(PreparedAtom, ArityMismatchRejected) {
  Database db;
  db.PutRelation(Relation("R", 2));
  Atom a;
  a.relation = "R";
  a.args = {Term::Var("x")};
  EXPECT_FALSE(PrepareAtom(a, db).ok());
}

TEST(Semijoin, ReducesBysSharedVariables) {
  PreparedAtom left;
  left.vars = {"x", "y"};
  left.rel = Relation("L", 2);
  left.rel.Add({1, 10});
  left.rel.Add({2, 20});
  left.rel.Add({3, 30});
  PreparedAtom right;
  right.vars = {"y", "z"};
  right.rel = Relation("R", 2);
  right.rel.Add({10, 7});
  right.rel.Add({30, 8});
  SemijoinReduce(&left, right);
  EXPECT_EQ(left.rel.NumTuples(), 2u);
}

TEST(Semijoin, DisjointVarsOnlyEmptinessPropagates) {
  PreparedAtom left;
  left.vars = {"x"};
  left.rel = Relation("L", 1);
  left.rel.Add({1});
  PreparedAtom right;
  right.vars = {"z"};
  right.rel = Relation("R", 1);
  right.rel.Add({5});
  SemijoinReduce(&left, right);
  EXPECT_EQ(left.rel.NumTuples(), 1u);  // Nonempty source: no-op.
  right.rel = Relation("R", 1);         // Now empty.
  SemijoinReduce(&left, right);
  EXPECT_EQ(left.rel.NumTuples(), 0u);
}

TEST(JoinProject, KeepsRequestedColumnsOnly) {
  PreparedAtom left;
  left.vars = {"x", "y"};
  left.rel = Relation("L", 2);
  left.rel.Add({1, 10});
  left.rel.Add({2, 10});
  PreparedAtom right;
  right.vars = {"y", "z"};
  right.rel = Relation("R", 2);
  right.rel.Add({10, 7});
  right.rel.Add({10, 8});
  PreparedAtom out = JoinProject(left, right, {"x", "z"});
  EXPECT_EQ(out.vars, (std::vector<std::string>{"x", "z"}));
  EXPECT_EQ(out.rel.NumTuples(), 4u);
}

// ---- FreeConnexPlan ----------------------------------------------------------

TEST(FreeConnexPlan, NodesCoverHeadAndParentsPrecedeChildren) {
  Rng rng(301);
  Database db = Figure1Database(40, 6, &rng);
  ConjunctiveQuery q = Figure1Query();
  auto plan = BuildFreeConnexPlan(q, db);
  ASSERT_TRUE(plan.ok()) << plan.status();
  if (plan->empty) GTEST_SKIP() << "random instance empty";
  std::set<std::string> vars;
  for (const PreparedAtom& n : plan->nodes) {
    vars.insert(n.vars.begin(), n.vars.end());
  }
  for (const std::string& h : q.head()) {
    EXPECT_TRUE(vars.count(h)) << h;
  }
  // Every variable in the plan is a head variable (pure free projection).
  EXPECT_EQ(vars.size(), q.head().size());
  for (size_t i = 0; i < plan->parent.size(); ++i) {
    EXPECT_LT(plan->parent[i], static_cast<int>(i));
  }
  EXPECT_EQ(plan->parent[0], -1);
}

TEST(FreeConnexPlan, EmptyFlag) {
  Database db;
  db.PutRelation(Relation("R", 2));
  auto plan = BuildFreeConnexPlan(
      *ParseConjunctiveQuery("Q(x, y) :- R(x, y)."), db);
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan->empty);
}

// ---- Random acyclic-hypergraph property sweep ---------------------------------

/// Generates a random acyclic query by building a random join tree first:
/// each new atom shares a random subset of an existing atom's variables
/// and adds fresh ones. By construction the result is alpha-acyclic.
ConjunctiveQuery RandomAcyclicQuery(size_t atoms, Rng* rng) {
  ConjunctiveQuery q("Rnd", {}, {});
  int fresh = 0;
  std::vector<std::vector<std::string>> atom_vars;
  for (size_t i = 0; i < atoms; ++i) {
    std::vector<std::string> vars;
    if (i > 0) {
      const std::vector<std::string>& base = atom_vars[rng->Below(i)];
      for (const std::string& v : base) {
        if (rng->Chance(0.5)) vars.push_back(v);
      }
    }
    size_t fresh_count = 1 + rng->Below(2);
    for (size_t f = 0; f < fresh_count; ++f) {
      vars.push_back("v" + std::to_string(fresh++));
    }
    Atom a;
    a.relation = "R" + std::to_string(i);
    for (const std::string& v : vars) a.args.push_back(Term::Var(v));
    q.AddAtom(std::move(a));
    atom_vars.push_back(vars);
  }
  // Random subset of variables as head.
  std::vector<std::string> head;
  for (const std::string& v : q.Variables()) {
    if (rng->Chance(0.4)) head.push_back(v);
  }
  q.set_head(head);
  return q;
}

TEST(GyoProperty, RandomTreeShapedQueriesAreAcyclicWithValidJoinTrees) {
  Rng rng(302);
  for (int trial = 0; trial < 40; ++trial) {
    ConjunctiveQuery q = RandomAcyclicQuery(2 + rng.Below(6), &rng);
    Hypergraph hg = Hypergraph::FromQuery(q);
    GyoResult gyo = GyoReduce(hg);
    ASSERT_TRUE(gyo.acyclic) << "trial " << trial << ": " << q.ToString();
    EXPECT_TRUE(gyo.tree.IsValid(hg)) << q.ToString();
  }
}

TEST(GyoProperty, YannakakisMatchesOracleOnRandomAcyclicQueries) {
  Rng rng(303);
  for (int trial = 0; trial < 20; ++trial) {
    ConjunctiveQuery q = RandomAcyclicQuery(2 + rng.Below(4), &rng);
    if (q.Variables().size() > 7) continue;  // Keep the oracle fast.
    Database db;
    for (const Atom& a : q.atoms()) {
      db.PutRelation(RandomRelation(a.relation, a.arity(), 20, 4, &rng));
    }
    db.DeclareDomainSize(4);
    auto fast = EvaluateYannakakis(q, db);
    auto slow = EvaluateBacktrack(q, db);
    ASSERT_TRUE(fast.ok()) << fast.status() << " for " << q.ToString();
    ASSERT_TRUE(slow.ok());
    Relation a = *fast;
    Relation b = *slow;
    a.SortDedup();
    b.SortDedup();
    ASSERT_EQ(a.NumTuples(), b.NumTuples()) << q.ToString();
  }
}

TEST(GyoProperty, FreeConnexQueriesEnumerateCorrectly) {
  Rng rng(304);
  int tested = 0;
  for (int trial = 0; trial < 60 && tested < 15; ++trial) {
    ConjunctiveQuery q = RandomAcyclicQuery(2 + rng.Below(4), &rng);
    if (!IsFreeConnex(q) || q.arity() == 0 || q.Variables().size() > 7) {
      continue;
    }
    ++tested;
    Database db;
    for (const Atom& a : q.atoms()) {
      db.PutRelation(RandomRelation(a.relation, a.arity(), 18, 4, &rng));
    }
    db.DeclareDomainSize(4);
    auto e = MakeConstantDelayEnumerator(q, db);
    ASSERT_TRUE(e.ok()) << e.status() << " for " << q.ToString();
    Relation got = DrainEnumerator(e->get(), "got", q.arity());
    auto oracle = EvaluateBacktrack(q, db);
    ASSERT_TRUE(oracle.ok());
    EXPECT_EQ(got.NumTuples(), oracle->NumTuples()) << q.ToString();
  }
  EXPECT_GE(tested, 10);
}

}  // namespace
}  // namespace fgq
