#include "workload.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <unordered_set>

namespace servebench {

namespace {

using fgq::SemiringId;
using fgq::net::Verb;

// Packs a row of up to three values below 2^21 into one word; the
// generator keeps every value in range (domains are at most ~50k).
uint64_t Pack(const int64_t* row, int arity) {
  uint64_t k = 0;
  for (int i = 0; i < arity; ++i) k = (k << 21) | static_cast<uint64_t>(row[i]);
  return k;
}

Rel RandomRel(const std::string& name, int arity, size_t rows, int64_t domain,
              Rng* rng) {
  Rel r{name, arity, {}};
  r.values.reserve(rows * arity);
  std::unordered_set<uint64_t> seen;
  seen.reserve(rows * 2);
  int64_t row[3];
  while (r.rows() < rows) {
    for (int i = 0; i < arity; ++i) {
      row[i] = static_cast<int64_t>(rng->Below(static_cast<uint64_t>(domain)));
    }
    if (!seen.insert(Pack(row, arity)).second) continue;
    r.values.insert(r.values.end(), row, row + arity);
  }
  return r;
}

std::vector<MixEntry> ReadMix() {
  const Verb kEnum = Verb::kEnumerateLimit;
  const Verb kCount = Verb::kCount;
  return {
      {"fc-lookup", Kind::kFcLookup, kEnum, 32, SemiringId::kCounting, 4},
      {"figure1", Kind::kFigure1, kEnum, 32, SemiringId::kCounting, 3},
      {"path2", Kind::kPath2, kEnum, 32, SemiringId::kCounting, 2},
      {"count-edges", Kind::kEdges, kCount, 0, SemiringId::kCounting, 1},
      {"boolean", Kind::kBoolean, kEnum, 32, SemiringId::kCounting, 1},
      {"diseq", Kind::kDiseq, kEnum, 32, SemiringId::kCounting, 1},
      // kCount under all five semirings; the general-acyclic path2 runs
      // the join-tree sum-product DP.
      {"path2-counting", Kind::kPath2, kCount, 0, SemiringId::kCounting, 1},
      {"path2-boolean", Kind::kPath2, kCount, 0, SemiringId::kBoolean, 1},
      {"path2-minplus", Kind::kPath2, kCount, 0, SemiringId::kMinPlus, 1},
      {"path2-maxmin", Kind::kPath2, kCount, 0, SemiringId::kMaxMin, 1},
      {"path2-topk", Kind::kPath2, kCount, 0, SemiringId::kTopK, 1},
      // The same folds over a free-connex query run on the VM's stream.
      {"figure1-boolean", Kind::kFigure1, kCount, 0, SemiringId::kBoolean, 1},
      {"figure1-minplus", Kind::kFigure1, kCount, 0, SemiringId::kMinPlus, 1},
      {"figure1-maxmin", Kind::kFigure1, kCount, 0, SemiringId::kMaxMin, 1},
      {"figure1-topk", Kind::kFigure1, kCount, 0, SemiringId::kTopK, 1},
  };
}

std::vector<MixEntry> BulkMix() {
  const Verb kRows = Verb::kRows;
  const Verb kCount = Verb::kCount;
  return {
      {"fc-pair", Kind::kFcPair, kRows, 0, SemiringId::kCounting, 2},
      {"figure1", Kind::kFigure1, kRows, 0, SemiringId::kCounting, 1},
      {"path2", Kind::kPath2, kRows, 0, SemiringId::kCounting, 1},
      {"figure1-count", Kind::kFigure1, kCount, 0, SemiringId::kCounting, 1},
      {"path2-count", Kind::kPath2, kCount, 0, SemiringId::kCounting, 1},
      {"fc-pair-minplus", Kind::kFcPair, kCount, 0, SemiringId::kMinPlus, 1},
  };
}

}  // namespace

const char* KindText(Kind k) {
  switch (k) {
    case Kind::kFcLookup:
      return "Q(x) :- E1(x, y), B(x).";
    case Kind::kFcPair:
      return "Q(x, y) :- E1(x, y), B(x).";
    case Kind::kFigure1:
      return "Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R2(x1, y1), "
             "T(y3, y4, y5), S2(x2, y2).";
    case Kind::kPath2:
      return "Q(x, z) :- E1(x, y), E2(y, z).";
    case Kind::kEdges:
      return "Q(x, y) :- E1(x, y).";
    case Kind::kBoolean:
      return "Q() :- E1(x, y), E2(y, z), B(z).";
    case Kind::kDiseq:
      return "Q(x, y) :- E1(x, y), B(y), x != y.";
  }
  return "";
}

int KindArity(Kind k) {
  switch (k) {
    case Kind::kFcLookup:
      return 1;
    case Kind::kFigure1:
      return 3;
    case Kind::kBoolean:
      return 0;
    default:
      return 2;
  }
}

const Rel& Db::Get(const std::string& name) const {
  for (const Rel& r : rels) {
    if (r.name == name) return r;
  }
  std::fprintf(stderr, "servebench: no relation %s\n", name.c_str());
  std::abort();
}

Rel& Db::Get(const std::string& name) {
  return const_cast<Rel&>(static_cast<const Db*>(this)->Get(name));
}

size_t Db::TotalRows() const {
  size_t n = 0;
  for (const Rel& r : rels) n += r.rows();
  return n;
}

bool FindWorkload(const std::string& name, Workload* out) {
  Workload w;
  w.name = name;
  if (name == "hot-read" || name == "write-churn") {
    w.tuples = 4000;
    w.domain = 1004;
    w.mix = ReadMix();
    w.conns = 2;
    w.window = 8;
    w.blocks = 10;
    w.setups = 15;
    if (name == "write-churn") {
      w.conns = 1;
      w.write_every = 10;
    }
  } else if (name == "bulk-answers") {
    w.tuples = 200000;
    w.domain = 50004;
    w.mix = BulkMix();
    w.conns = 1;
    w.window = 1;
    w.blocks = 1;
    w.setups = 5;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

const std::vector<std::string>& MixRelations() {
  static const std::vector<std::string> kRels = {"E1", "E2", "B",  "R",
                                                 "S",  "R2", "T",  "S2"};
  return kRels;
}

Db Generate(const Workload& w, uint64_t seed) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + 1);
  Db db;
  const size_t n = w.tuples;
  db.rels.push_back(RandomRel("E1", 2, n, w.domain, &rng));
  db.rels.push_back(RandomRel("E2", 2, n, w.domain, &rng));
  db.rels.push_back(
      RandomRel("B", 1, static_cast<size_t>(w.domain / 2), w.domain, &rng));
  db.rels.push_back(RandomRel("R", 2, n, w.domain, &rng));
  db.rels.push_back(RandomRel("S", 3, n, w.domain, &rng));
  db.rels.push_back(RandomRel("R2", 2, n, w.domain, &rng));
  db.rels.push_back(RandomRel("T", 3, n, w.domain, &rng));
  db.rels.push_back(RandomRel("S2", 2, n, w.domain, &rng));
  return db;
}

bool WriteFactFile(const Db& db, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Rel& r : db.rels) {
    for (size_t i = 0; i < r.rows(); ++i) {
      std::fputs(r.name.c_str(), f);
      const int64_t* row = r.row(i);
      for (int c = 0; c < r.arity; ++c) {
        std::fprintf(f, " %lld", static_cast<long long>(row[c]));
      }
      std::fputc('\n', f);
    }
  }
  return std::fclose(f) == 0;
}

std::vector<WriteOp> InsertPool(const Workload& w, const Db& db,
                                uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 7);
  std::vector<WriteOp> pool;
  // Pool rows are interleaved over the relations, so consecutive insert
  // pairs touch different relations.
  std::vector<std::vector<WriteOp>> per_rel;
  for (const std::string& name : MixRelations()) {
    const Rel& r = db.Get(name);
    std::unordered_set<uint64_t> present;
    for (size_t i = 0; i < r.rows(); ++i) present.insert(Pack(r.row(i), r.arity));
    std::vector<WriteOp> ops;
    while (ops.size() < kPoolPerRelation) {
      WriteOp op{false, name, std::vector<int64_t>(r.arity)};
      for (int c = 0; c < r.arity; ++c) {
        op.row[c] = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(w.domain)));
      }
      if (!present.insert(Pack(op.row.data(), r.arity)).second) continue;
      ops.push_back(std::move(op));
    }
    per_rel.push_back(std::move(ops));
  }
  for (size_t i = 0; i < kPoolPerRelation; ++i) {
    for (auto& ops : per_rel) pool.push_back(ops[i]);
  }
  return pool;
}

WriteOp WriteAt(const std::vector<WriteOp>& pool, uint64_t w) {
  WriteOp op = pool[(w / 2) % pool.size()];
  op.is_delete = (w % 2) == 1;
  return op;
}

int StateAfterWrite(const std::vector<WriteOp>& pool, uint64_t w) {
  if (w % 2 == 1) return -1;
  return static_cast<int>((w / 2) % pool.size());
}

std::vector<int> RoundOrder(const Workload& w, uint64_t seed, size_t conn,
                            uint64_t round) {
  std::vector<int> order;
  for (size_t b = 0; b < w.blocks; ++b) {
    for (size_t i = 0; i < w.mix.size(); ++i) {
      for (int c = 0; c < w.mix[i].weight; ++c) {
        order.push_back(static_cast<int>(i));
      }
    }
  }
  Rng rng(seed ^ (0x51ed270bull * (conn + 1)) ^ (round * 0x2127599bf4325c37ull));
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

fgq::net::Request MakeRequest(const MixEntry& e, uint64_t id) {
  fgq::net::Request r;
  r.id = id;
  r.verb = e.verb;
  r.query = KindText(e.kind);
  r.limit = e.limit;
  r.semiring = e.semiring;
  return r;
}

fgq::net::Request MakeWrite(const WriteOp& op, uint64_t id) {
  fgq::net::Request r;
  r.id = id;
  r.verb = fgq::net::Verb::kMutate;
  fgq::net::MutationOp m;
  m.is_delete = op.is_delete;
  m.relation = op.relation;
  m.arity = static_cast<uint32_t>(op.row.size());
  m.nrows = 1;
  m.values = op.row;
  r.mutations.push_back(std::move(m));
  return r;
}

}  // namespace servebench
