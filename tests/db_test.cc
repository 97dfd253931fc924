#include <gtest/gtest.h>

#include <algorithm>

#include "fgq/db/database.h"
#include "fgq/db/index.h"
#include "fgq/db/loader.h"
#include "fgq/db/probe_kernels.h"
#include "fgq/db/relation.h"
#include "fgq/db/tag_key_set.h"
#include "fgq/db/trie.h"
#include "fgq/db/value.h"
#include "fgq/util/hash.h"
#include "fgq/util/random.h"
#include "fgq/util/simd.h"

namespace fgq {

/// Befriended by HashIndex: lets the tag-collision test derive the 8-bit
/// tag of a key exactly as the index does.
struct HashIndexTestPeer {
  static constexpr uint64_t KeySeed() { return HashIndex::kKeySeed; }
  static bool HasDenseCount(const HashIndex& idx) {
    return !idx.dense_cnt_.empty();
  }
};

namespace {

Relation MakeEdges() {
  Relation r("E", 2);
  r.Add({1, 2});
  r.Add({2, 3});
  r.Add({1, 2});  // Duplicate.
  r.Add({0, 1});
  return r;
}

TEST(Relation, SortDedupEstablishesSetSemantics) {
  Relation r = MakeEdges();
  EXPECT_EQ(r.NumTuples(), 4u);
  r.SortDedup();
  ASSERT_EQ(r.NumTuples(), 3u);
  EXPECT_EQ(r.Row(0)[0], 0);
  EXPECT_EQ(r.Row(1)[0], 1);
  EXPECT_EQ(r.Row(2)[0], 2);
}

TEST(Relation, ProjectDedups) {
  Relation r = MakeEdges();
  Relation p = r.Project({0}, "P");
  ASSERT_EQ(p.arity(), 1u);
  EXPECT_EQ(p.NumTuples(), 3u);  // {0, 1, 2}.
}

TEST(Relation, ProjectCanRepeatAndReorderColumns) {
  Relation r("R", 2);
  r.Add({7, 8});
  Relation p = r.Project({1, 0, 1}, "P");
  ASSERT_EQ(p.NumTuples(), 1u);
  EXPECT_EQ(p.Row(0)[0], 8);
  EXPECT_EQ(p.Row(0)[1], 7);
  EXPECT_EQ(p.Row(0)[2], 8);
}

TEST(Relation, ProjectToNullary) {
  Relation r = MakeEdges();
  Relation p = r.Project({}, "B");
  EXPECT_EQ(p.arity(), 0u);
  EXPECT_EQ(p.NumTuples(), 1u);  // "true".
  Relation empty("X", 2);
  EXPECT_EQ(empty.Project({}, "B").NumTuples(), 0u);
}

/// A random arity-3 bag over a small domain: plenty of duplicates and of
/// rows sharing prefixes.
Relation RandomBag(uint64_t seed, size_t rows) {
  Rng rng(seed);
  Relation r("R", 3);
  for (size_t i = 0; i < rows; ++i) {
    r.Add({static_cast<Value>(rng.Below(4)), static_cast<Value>(rng.Below(4)),
           static_cast<Value>(rng.Below(4))});
  }
  return r;
}

// Project's linear paths on a sorted set (identity copy, adjacent dedup of
// a prefix) must give what the sorting path gives on the same rows in
// arbitrary order, and still be sorted sets.
TEST(Relation, ProjectLinearPathsMatchSortingPath) {
  const std::vector<std::vector<size_t>> projections = {
      {0, 1, 2}, {0}, {0, 1}, {1}, {2}, {0, 2}, {1, 2}, {2, 0}, {1, 0, 2},
      {0, 0}};
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const Relation bag = RandomBag(seed, 40);
    Relation set = bag;
    set.SortDedup();
    ASSERT_TRUE(set.sorted());
    for (const std::vector<size_t>& cols : projections) {
      const Relation linear = set.Project(cols, "P");
      const Relation sorting = bag.Project(cols, "P");
      EXPECT_TRUE(linear.sorted());
      EXPECT_EQ(linear.ToRowMajor(), sorting.ToRowMajor())
          << "seed " << seed << " cols " << cols.size();
      Relation resorted = linear;
      resorted.SortDedup();
      EXPECT_EQ(resorted.ToRowMajor(), linear.ToRowMajor());
    }
  }
}

TEST(Relation, LowerBoundAndMergeSortedKeepSortedSets) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Relation set = RandomBag(seed, 30);
    set.SortDedup();
    Rng rng(seed + 100);
    // Delete a random subset of rows; insert random absent rows.
    std::vector<uint32_t> deleted;
    for (uint32_t i = 0; i < set.NumTuples(); ++i) {
      if (rng.Below(3) == 0) deleted.push_back(i);
    }
    Relation inserts = RandomBag(seed + 200, 10);
    inserts.SortDedup();
    std::vector<uint8_t> keep(inserts.NumTuples(), 1);
    std::vector<uint32_t> insert_at;
    Relation expected("R", 3);
    for (size_t i = 0; i < set.NumTuples(); ++i) {
      if (!std::binary_search(deleted.begin(), deleted.end(), i)) {
        expected.AddRowFrom(set, i);
      }
    }
    for (size_t i = 0; i < inserts.NumTuples(); ++i) {
      const Tuple t = inserts.Row(i).ToTuple();
      const size_t at = set.LowerBound(t.data());
      ASSERT_LE(at, set.NumTuples());
      if (at > 0) EXPECT_LT(set.CompareRow(at - 1, t.data()), 0);
      if (at < set.NumTuples() && set.CompareRow(at, t.data()) == 0) {
        keep[i] = 0;  // Present: MergeSorted takes absent rows only.
        continue;
      }
      insert_at.push_back(static_cast<uint32_t>(at));
      expected.Add(t);
    }
    inserts.CompactRows(keep);
    const Relation merged = set.MergeSorted(deleted, inserts, insert_at);
    expected.SortDedup();
    EXPECT_TRUE(merged.sorted());
    EXPECT_EQ(merged.ToRowMajor(), expected.ToRowMajor()) << "seed " << seed;
  }
}

TEST(Relation, FilterKeepsMatching) {
  Relation r = MakeEdges();
  r.Filter([](TupleView t) { return t[0] == 1; });
  EXPECT_EQ(r.NumTuples(), 2u);
}

TEST(Relation, SortByColumnOrder) {
  Relation r("R", 2);
  r.Add({1, 9});
  r.Add({2, 3});
  r.Add({3, 5});
  r.SortBy({1});
  EXPECT_EQ(r.Row(0)[1], 3);
  EXPECT_EQ(r.Row(1)[1], 5);
  EXPECT_EQ(r.Row(2)[1], 9);
}

TEST(Relation, ContainsAndMax) {
  Relation r = MakeEdges();
  EXPECT_TRUE(r.Contains({2, 3}));
  EXPECT_FALSE(r.Contains({3, 2}));
  EXPECT_EQ(r.MaxValue(), 3);
  EXPECT_EQ(Relation("X", 2).MaxValue(), -1);
}

TEST(Relation, NullaryRelation) {
  Relation b("B", 0);
  EXPECT_TRUE(b.empty());
  b.AddNullary();
  EXPECT_EQ(b.NumTuples(), 1u);
  EXPECT_TRUE(b.Contains({}));
  b.Filter([](TupleView) { return false; });
  EXPECT_TRUE(b.empty());
}

TEST(Relation, SizeWeight) {
  Relation r = MakeEdges();
  r.SortDedup();
  EXPECT_EQ(r.SizeWeight(), 6u);  // 3 tuples * arity 2.
}

TEST(Database, AddAndFind) {
  Database db;
  ASSERT_TRUE(db.AddRelation(MakeEdges()).ok());
  EXPECT_FALSE(db.AddRelation(MakeEdges()).ok());  // AlreadyExists.
  ASSERT_TRUE(db.Find("E").ok());
  EXPECT_EQ(db.Find("E").value()->NumTuples(), 4u);
  EXPECT_FALSE(db.Find("Nope").ok());
  EXPECT_TRUE(db.Has("E"));
}

TEST(Database, DomainSizeFromDataAndDeclaration) {
  Database db;
  db.PutRelation(MakeEdges());
  EXPECT_EQ(db.DomainSize(), 4);  // Max value 3.
  db.DeclareDomainSize(10);
  EXPECT_EQ(db.DomainSize(), 10);
}

TEST(Database, CopyIsCheapAndValueSemantic) {
  Database a;
  a.PutRelation(MakeEdges());
  Database b = a;  // O(#relations): payload pointers are shared...
  EXPECT_EQ(a.FindShared("E").get(), b.FindShared("E").get());
  // ...until one side mutates: FindMutable clones before writing.
  Result<Relation*> mut = b.FindMutable("E");
  ASSERT_TRUE(mut.ok());
  (*mut)->Add({9, 9});
  EXPECT_NE(a.FindShared("E").get(), b.FindShared("E").get());
  EXPECT_EQ(a.Find("E").value()->NumTuples(), 4u);
  EXPECT_EQ(b.Find("E").value()->NumTuples(), 5u);
  EXPECT_FALSE(a.Find("E").value()->Contains({9, 9}));

  // An unshared payload is written in place — no clone-per-write churn.
  Result<Relation*> again = b.FindMutable("E");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *mut);
}

TEST(Database, CopyAssignReplacesAndSharesPayloads) {
  Database a;
  a.PutRelation(MakeEdges());
  Database b;
  Relation r("R", 1);
  r.Add({1});
  b.PutRelation(std::move(r));
  b = a;
  EXPECT_FALSE(b.Has("R"));
  EXPECT_EQ(a.FindShared("E").get(), b.FindShared("E").get());
  // Mutating the source never leaks into the copy.
  ASSERT_TRUE(a.FindMutable("E").ok());
  a.PutRelation(Relation("E", 2));
  EXPECT_EQ(b.Find("E").value()->NumTuples(), 4u);
}

TEST(Database, DegreeCountsTuplesPerElement) {
  // Element 1 appears in tuples (1,2), (1,2)dup->once after nodedup... use
  // fresh relation: degree counts tuple membership, repeated positions once.
  Database db;
  Relation r("R", 2);
  r.Add({1, 2});
  r.Add({1, 3});
  r.Add({1, 1});  // Repeated position counts once.
  db.PutRelation(std::move(r));
  EXPECT_EQ(db.Degree(), 3u);  // Element 1 is in three tuples.
}

TEST(HashIndex, LookupByKeyColumns) {
  Relation r = MakeEdges();
  r.SortDedup();
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.Lookup({1}).size(), 1u);
  EXPECT_EQ(idx.Lookup({9}).size(), 0u);
  EXPECT_TRUE(idx.ContainsKey({2}));
  EXPECT_EQ(idx.NumKeys(), 3u);
}

TEST(HashIndex, EmptyKeyMatchesAllRows) {
  Relation r = MakeEdges();
  r.SortDedup();
  HashIndex idx(r, {});
  EXPECT_EQ(idx.Lookup({}).size(), 3u);
}

TEST(HashIndex, CompositeKey) {
  Relation r("R", 3);
  r.Add({1, 2, 3});
  r.Add({1, 2, 4});
  r.Add({1, 3, 5});
  HashIndex idx(r, {0, 1});
  EXPECT_EQ(idx.Lookup({1, 2}).size(), 2u);
  EXPECT_EQ(idx.Lookup({1, 3}).size(), 1u);
}

TEST(HashIndex, CollisionHeavyAllRowsOneKey) {
  // Every row shares one key: the CSR payload degenerates to a single fat
  // posting list; spans must still come back complete and ascending.
  constexpr size_t kRows = 20000;  // Above the sharded-build cutoff.
  Relation r("R", 2);
  for (size_t i = 0; i < kRows; ++i) r.Add({7, static_cast<Value>(i)});
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.NumKeys(), 1u);
  HashIndex::RowSpan span = idx.Lookup({7});
  ASSERT_EQ(span.size(), kRows);
  for (size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(span[i], static_cast<uint32_t>(i));
  }
  EXPECT_TRUE(idx.Lookup({8}).empty());
}

TEST(HashIndex, EmptyRelation) {
  Relation r("R", 2);
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.NumKeys(), 0u);
  EXPECT_TRUE(idx.Lookup({1}).empty());
  HashIndex all(r, {});
  EXPECT_EQ(all.NumKeys(), 0u);
  EXPECT_TRUE(all.Lookup({}).empty());
}

TEST(HashIndex, ParallelBuildBitIdenticalLayout) {
  // The determinism contract: serial and parallel builds must produce the
  // same flat arrays — not just the same lookup results — for any thread
  // count. Skewed keys keep some posting lists fat.
  constexpr size_t kRows = 40000;  // Above the parallel-build cutoff.
  Relation r("R", 2);
  uint64_t x = 88172645463325252ull;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    r.Add({static_cast<Value>(x % 512), static_cast<Value>(i)});
  }
  HashIndex serial(r, {0});
  for (int threads : {1, 2, 8}) {
    ExecOptions opts;
    opts.num_threads = threads;
    ExecContext ctx(opts);
    HashIndex par(r, {0}, ctx);
    EXPECT_EQ(par.NumKeys(), serial.NumKeys()) << threads << " threads";
    EXPECT_EQ(par.offsets(), serial.offsets()) << threads << " threads";
    EXPECT_EQ(par.row_ids(), serial.row_ids()) << threads << " threads";
    EXPECT_EQ(par.slots(), serial.slots()) << threads << " threads";
  }
}

TEST(Trie, LevelsAndLookup) {
  Relation r("R", 2);
  r.Add({1, 10});
  r.Add({1, 11});
  r.Add({2, 10});
  Trie trie(r, {0, 1});
  EXPECT_EQ(trie.depth(), 2u);
  EXPECT_EQ(trie.Roots().size(), 2u);
  const Trie::Node* one = trie.FindRoot(1);
  ASSERT_NE(one, nullptr);
  EXPECT_EQ(trie.ChildEnd(0, *one) - trie.ChildBegin(0, *one), 2);
  EXPECT_NE(trie.FindChild(0, *one, 11), nullptr);
  EXPECT_EQ(trie.FindChild(0, *one, 12), nullptr);
  EXPECT_EQ(trie.FindRoot(5), nullptr);
  EXPECT_EQ(trie.NumLeaves(), 3u);
}

TEST(Trie, ReorderedColumnOrder) {
  Relation r("R", 2);
  r.Add({1, 10});
  r.Add({2, 10});
  r.Add({2, 11});
  Trie trie(r, {1, 0});  // Keyed by second column first.
  const Trie::Node* ten = trie.FindRoot(10);
  ASSERT_NE(ten, nullptr);
  EXPECT_EQ(trie.ChildEnd(0, *ten) - trie.ChildBegin(0, *ten), 2);
}

TEST(Trie, DedupsTuples) {
  Relation r("R", 1);
  r.Add({5});
  r.Add({5});
  Trie trie(r, {0});
  EXPECT_EQ(trie.Roots().size(), 1u);
}

TEST(Dictionary, InternAndLookup) {
  Dictionary d;
  Value a = d.Intern("alice");
  Value b = d.Intern("bob");
  EXPECT_EQ(d.Intern("alice"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(d.Lookup(a), "alice");
  EXPECT_EQ(d.Find("carol"), kBottom);
  EXPECT_EQ(d.size(), 2u);
}

TEST(Loader, ParsesFactsWithStringsAndInts) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString(
      "# comment line\n"
      "Edge 1 2\n"
      "Edge 2 3\n"
      "Person alice 30\n"
      "\n"
      "Person bob 25\n",
      &db, &dict);
  ASSERT_TRUE(st.ok()) << st;
  EXPECT_EQ(db.Find("Edge").value()->NumTuples(), 2u);
  EXPECT_EQ(db.Find("Person").value()->NumTuples(), 2u);
  EXPECT_EQ(dict.size(), 2u);  // alice, bob.
}

TEST(Loader, RejectsArityMismatch) {
  Database db;
  Dictionary dict;
  Status st = LoadFactsFromString("R 1 2\nR 1 2 3\n", &db, &dict);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
}

// --- Tag-layout edge cases ------------------------------------------------

TEST(HashIndex, TagCollisionHeavyKeys) {
  // Distinct keys engineered to share one 8-bit tag: every probe's tag
  // compare matches many slots, so hits and misses alike must be decided
  // by the per-group verify, not the tag filter. This is the layout's
  // adversarial shape — a plain Swiss table degrades to a linear scan of
  // tag matches here, and a bug in the match-bit walk or the group verify
  // shows up as wrong counts.
  const uint64_t seed = HashIndexTestPeer::KeySeed();
  const uint8_t want_tag = HashTag(HashCombine(seed, 0));
  std::vector<Value> same_tag;  // Values whose key hash carries want_tag.
  for (Value v = 0; same_tag.size() < 1200; ++v) {
    if (HashTag(HashCombine(seed, static_cast<uint64_t>(v))) == want_tag) {
      same_tag.push_back(v);
    }
  }
  // First 1000 inserted; the remaining 200 share the tag but miss.
  Relation r("R", 2);
  for (size_t i = 0; i < 1000; ++i) {
    r.Add({same_tag[i], static_cast<Value>(i)});
    r.Add({same_tag[i], static_cast<Value>(i + 1000)});  // Two rows per key.
  }
  r.SortDedup();
  HashIndex idx(r, {0});
  EXPECT_EQ(idx.NumKeys(), 1000u);
  for (size_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(idx.Lookup({same_tag[i]}).size(), 2u) << "key " << same_tag[i];
  }
  for (size_t i = 1000; i < 1200; ++i) {
    EXPECT_TRUE(idx.Lookup({same_tag[i]}).empty()) << "key " << same_tag[i];
  }
  // The batched count kernel must agree with per-row lookups, on both
  // instruction-set tiers (without AVX2 the Avx2 symbol forwards).
  Relation probe("P", 1);
  for (Value v : same_tag) probe.Add({v});
  const Value* pcols[] = {probe.Column(0)};
  const uint64_t portable =
      CountProbeRowsPortable(idx, pcols, 1, 0, probe.NumTuples());
  const uint64_t avx2 = CountProbeRowsAvx2(idx, pcols, 1, 0, probe.NumTuples());
  EXPECT_EQ(portable, 2000u);
  EXPECT_EQ(avx2, portable);
}

TEST(HashIndex, CountProbeRowsNonGroupWidthSizes) {
  // Probe ranges not divisible by the SIMD group width or the batch-of-8
  // gather: the kernel tails must cover the stragglers exactly once.
  for (size_t n : {1u, 7u, 31u, 33u, 63u, 100u, 257u}) {
    Relation r("R", 2);
    for (size_t i = 0; i < n; ++i) {
      r.Add({static_cast<Value>(i), static_cast<Value>(i)});
    }
    HashIndex idx(r, {0});
    // Probe keys 0..2n-1: exactly the first n hit.
    Relation probe("P", 1);
    for (size_t i = 0; i < 2 * n; ++i) probe.Add({static_cast<Value>(i)});
    const Value* pcols[] = {probe.Column(0)};
    EXPECT_EQ(CountProbeRowsPortable(idx, pcols, 1, 0, 2 * n), n) << n;
    EXPECT_EQ(CountProbeRowsAvx2(idx, pcols, 1, 0, 2 * n), n) << n;
    // Unaligned sub-ranges (begin/end both off the batch grid).
    if (n > 3) {
      const uint64_t p = CountProbeRowsPortable(idx, pcols, 1, 3, n + 1);
      EXPECT_EQ(p, n - 3) << n;
      EXPECT_EQ(CountProbeRowsAvx2(idx, pcols, 1, 3, n + 1), p) << n;
    }
  }
}

TEST(HashIndex, DeltaBuildEmptiedGroupsOnTagPath) {
  // A delta batch that empties a key group leaves the group's tag, hash,
  // and key behind in the table. Probes walking that chain — lookups,
  // batched counts, and a later batch re-inserting the key — must skip
  // the empty group instead of matching or faulting on it.
  Relation r("R", 2);
  for (Value k = 0; k < 50; ++k) r.Add({k, k * 10});
  r.SortDedup();
  HashIndex base(r, {0});
  // Batch 1: delete every row of keys 10..19 (ten groups emptied).
  HashIndex::Delta del;
  for (uint32_t row = 10; row < 20; ++row) del.deleted_rows.push_back(row);
  Relation after_del("R", 2);
  for (Value k = 0; k < 50; ++k) {
    if (k < 10 || k >= 20) after_del.Add({k, k * 10});
  }
  after_del.SortDedup();
  auto d1 = HashIndex::DeltaBuild(base, r, after_del, del);
  ASSERT_NE(d1, nullptr);
  for (Value k = 0; k < 50; ++k) {
    const size_t want = (k >= 10 && k < 20) ? 0u : 1u;
    EXPECT_EQ(d1->Lookup({k}).size(), want) << "key " << k;
  }
  // Batch 2: re-insert key 15 (new group, same key as an emptied one).
  Relation after_ins = after_del;
  after_ins.Add({15, 999});
  HashIndex::Delta ins;
  ins.num_inserted = 1;
  auto d2 = HashIndex::DeltaBuild(*d1, after_del, after_ins, ins);
  ASSERT_NE(d2, nullptr);
  HashIndex fresh(after_ins, {0});
  Relation probe("P", 1);
  for (Value k = 0; k < 50; ++k) probe.Add({k});
  const Value* pcols[] = {probe.Column(0)};
  for (Value k = 0; k < 50; ++k) {
    EXPECT_EQ(d2->Lookup({k}).size(), fresh.Lookup({k}).size()) << "key " << k;
  }
  const uint64_t fresh_count =
      CountProbeRowsPortable(fresh, pcols, 1, 0, probe.NumTuples());
  EXPECT_EQ(CountProbeRowsPortable(*d2, pcols, 1, 0, probe.NumTuples()),
            fresh_count);
  EXPECT_EQ(CountProbeRowsAvx2(*d2, pcols, 1, 0, probe.NumTuples()),
            fresh_count);
}

TEST(TagKeySet, ScalarVsSimdBitIdentityAcrossRangeSplits) {
  // The mark kernels' contract: the portable and AVX2 tiers clear exactly
  // the same alive bytes and report the same survivor counts, for any
  // partition of the row range (1/2/8 "threads" — ParallelFor hands each
  // kernel call a disjoint range, so per-range equality is the whole
  // determinism argument).
  constexpr size_t kRows = 5000;
  Relation source("S", 1);
  Relation target("T", 2);
  uint64_t x = 424242;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    if (i % 3 != 0) source.Add({static_cast<Value>(x % 1000)});
    target.Add({static_cast<Value>(i % 1500), static_cast<Value>(i)});
  }
  source.SortDedup();
  target.SortDedup();
  TagKeySet set(source, {0}, /*alive=*/nullptr);
  const Value* tcols[] = {target.Column(0)};
  const size_t nt = target.NumTuples();
  for (size_t parts : {1u, 2u, 8u}) {
    std::vector<uint8_t> alive_p(nt, 1), alive_v(nt, 1);
    uint64_t live_p = 0, live_v = 0;
    const size_t chunk = (nt + parts - 1) / parts;
    for (size_t b = 0; b < nt; b += chunk) {
      const size_t e = std::min(nt, b + chunk);
      live_p += TagMarkMissesPortable(set, tcols, alive_p.data(), b, e);
      live_v += TagMarkMissesAvx2(set, tcols, alive_v.data(), b, e);
    }
    EXPECT_EQ(live_p, live_v) << parts << " parts";
    EXPECT_EQ(alive_p, alive_v) << parts << " parts";
    EXPECT_EQ(live_p, static_cast<uint64_t>(
                          std::count(alive_p.begin(), alive_p.end(), 1)))
        << parts << " parts";
  }
}

TEST(DenseKeySet, AcceptsDenseDeclinesSparse) {
  constexpr size_t kN = 4096;
  std::vector<Value> dense_col(kN), sparse_col(kN);
  for (size_t i = 0; i < kN; ++i) {
    dense_col[i] = static_cast<Value>(100 + i);  // Range == count.
    // Range ~2^26 at ~kN alive values: far beyond the sparsity cap.
    sparse_col[i] = static_cast<Value>(i * 16384);
  }
  DenseKeySet dense;
  EXPECT_TRUE(dense.Build(dense_col.data(), nullptr, kN));
  EXPECT_TRUE(dense.Contains(100));
  EXPECT_TRUE(dense.Contains(static_cast<Value>(100 + kN - 1)));
  EXPECT_FALSE(dense.Contains(99));
  EXPECT_FALSE(dense.Contains(static_cast<Value>(100 + kN)));
  DenseKeySet sparse;
  EXPECT_FALSE(sparse.Build(sparse_col.data(), nullptr, kN));
  // The empty set builds (trivially dense) and contains nothing.
  DenseKeySet empty;
  EXPECT_TRUE(empty.Build(dense_col.data(), nullptr, 0));
  EXPECT_FALSE(empty.Contains(0));
}

TEST(DenseKeySet, MarkMissesMatchesTagKeySet) {
  // The dense bitmap is an exact drop-in for the tag table on single-
  // column keys: same cleared bytes, same survivor count.
  constexpr size_t kRows = 3000;
  Relation source("S", 1);
  Relation target("T", 2);
  uint64_t x = 77;
  std::vector<uint8_t> s_alive;
  for (size_t i = 0; i < kRows; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    source.Add({static_cast<Value>(x % 800)});
    s_alive.push_back(i % 5 == 0 ? 0 : 1);  // Some dead source rows.
    target.Add({static_cast<Value>(i % 1200), static_cast<Value>(i)});
  }
  const size_t nt = target.NumTuples();
  DenseKeySet dense;
  ASSERT_TRUE(dense.Build(source.Column(0), s_alive.data(), kRows));
  TagKeySet tags(source, {0}, s_alive.data());
  const Value* tcols[] = {target.Column(0)};
  std::vector<uint8_t> alive_d(nt, 1), alive_t(nt, 1);
  const uint64_t live_d = dense.MarkMisses(target.Column(0), alive_d.data(),
                                           0, nt);
  const uint64_t live_t = tags.MarkMisses(tcols, alive_t.data(), 0, nt);
  EXPECT_EQ(live_d, live_t);
  EXPECT_EQ(alive_d, alive_t);
}

// The dense-domain count table must be an invisible optimization: same
// counts as the tag-probed kernels when it engages (dense key range) and
// a clean decline when the range is sparse or huge.
TEST(HashIndex, DenseCountTableMatchesHashKernels) {
  // Dense: 900 distinct keys covering most of [0, 1000), duplicated.
  Relation dense_rel("D", 2);
  for (Value v = 0; v < 1000; ++v) {
    if (v % 10 == 3) continue;  // A few holes keep the range non-trivial.
    dense_rel.Add({v, v * 2});
    if (v % 4 == 0) dense_rel.Add({v, v * 2 + 1});
  }
  // Sparse: same key count, spread over a range far past the dense cap.
  Relation sparse_rel("S", 2);
  for (Value v = 0; v < 1000; ++v) sparse_rel.Add({v * 1000003, v});
  // Probes straddle the key range on both ends and include misses.
  Relation probes("P", 1);
  for (Value v = -7; v < 1200; ++v) probes.Add({v});
  for (Value v = -7; v < 1200; ++v) probes.Add({v * 1000003});
  const std::vector<size_t> pc = {0};
  const Value* pcols[1] = {probes.Column(0)};
  for (const Relation* rel : {&dense_rel, &sparse_rel}) {
    HashIndex idx(*rel, {0});
    EXPECT_EQ(HashIndexTestPeer::HasDenseCount(idx), rel == &dense_rel);
    const uint64_t got = idx.CountProbeRows(probes, pc, 0, probes.NumTuples());
    // The kernel free functions bypass the dense table, so this equality
    // is dense-vs-hash, not dense-vs-itself.
    EXPECT_EQ(got,
              CountProbeRowsPortable(idx, pcols, 1, 0, probes.NumTuples()));
    EXPECT_EQ(got, CountProbeRowsAvx2(idx, pcols, 1, 0, probes.NumTuples()));
    uint64_t manual = 0;
    for (size_t i = 0; i < probes.NumTuples(); ++i) {
      manual += idx.Lookup({probes.Column(0)[i]}).count;
    }
    EXPECT_EQ(got, manual);
  }
}

}  // namespace
}  // namespace fgq
