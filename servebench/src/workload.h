#ifndef SERVEBENCH_WORKLOAD_H_
#define SERVEBENCH_WORKLOAD_H_

// The benchmark's own inputs: a seeded generator for the relations, the
// query mix of each workload, and the write log of write-churn. Nothing
// here calls into the library's generators, so a change to the library
// cannot change what the benchmark sends.

#include <cstdint>
#include <string>
#include <vector>

#include "fgq/count/semiring.h"
#include "fgq/net/protocol.h"

namespace servebench {

/// SplitMix64: small, fast, and fixed forever (the inputs depend on it).
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t s_;
};

/// A set relation: distinct rows, row-major values.
struct Rel {
  std::string name;
  int arity = 0;
  std::vector<int64_t> values;
  size_t rows() const { return arity == 0 ? 0 : values.size() / arity; }
  const int64_t* row(size_t i) const { return values.data() + i * arity; }
};

/// The generated database, relations in the order Generate draws them.
struct Db {
  std::vector<Rel> rels;
  const Rel& Get(const std::string& name) const;
  Rel& Get(const std::string& name);
  size_t TotalRows() const;
};

/// The answer set a mix entry reads; the oracle has one join per kind.
enum class Kind {
  kFcLookup,  ///< Q(x) :- E1(x, y), B(x).
  kFcPair,    ///< Q(x, y) :- E1(x, y), B(x).
  kFigure1,   ///< The paper's Figure-1 query.
  kPath2,     ///< Q(x, z) :- E1(x, y), E2(y, z).
  kEdges,     ///< Q(x, y) :- E1(x, y).
  kBoolean,   ///< Q() :- E1(x, y), E2(y, z), B(z).
  kDiseq,     ///< Q(x, y) :- E1(x, y), B(y), x != y.
};
inline constexpr int kNumKinds = 7;
const char* KindText(Kind k);
int KindArity(Kind k);

/// One request shape of a workload's mix.
struct MixEntry {
  std::string label;
  Kind kind;
  fgq::net::Verb verb;
  uint32_t limit = 0;  ///< kEnumerateLimit only.
  fgq::SemiringId semiring = fgq::SemiringId::kCounting;  ///< kCount only.
  int weight = 1;  ///< Copies per block of the mix.
};

/// One write of the log: a one-row insert or delete.
struct WriteOp {
  bool is_delete = false;
  std::string relation;
  std::vector<int64_t> row;
};

struct Workload {
  std::string name;
  size_t tuples = 0;   ///< Rows per relation (B gets half the domain).
  int64_t domain = 0;  ///< Values are drawn from [0, domain).
  std::vector<MixEntry> mix;
  size_t conns = 2;       ///< Client connections.
  size_t window = 8;      ///< Requests in flight per connection.
  size_t blocks = 10;     ///< Mix blocks per round.
  size_t write_every = 0; ///< Writer connection: one write per this many
                          ///< requests (0 = no writes in the measured phase).
  size_t setups = 3;      ///< Server start-ups per run (setup_s median).
};

/// Insert candidates per mix relation in the write log.
inline constexpr size_t kPoolPerRelation = 4;

/// The named workload, or false when the name is unknown.
bool FindWorkload(const std::string& name, Workload* out);

/// The relations of a workload, drawn from `seed`: E1, E2, B, R, S, R2,
/// T, S2 over [0, domain).
Db Generate(const Workload& w, uint64_t seed);

/// Writes `db` as a fact file (one `Rel v1 v2 ...` line per row).
bool WriteFactFile(const Db& db, const std::string& path);

/// Relations the write log touches, in its round-robin order.
const std::vector<std::string>& MixRelations();

/// Rows absent from `db`, kPoolPerRelation per mix relation, drawn from
/// `seed`: the write log inserts one and deletes it again, so the database
/// after any write is the base or the base plus one pool row.
std::vector<WriteOp> InsertPool(const Workload& w, const Db& db,
                                uint64_t seed);

/// The w-th write (0-based) of the log over `pool`: even writes insert
/// pool row (w / 2) mod |pool|, odd writes delete it again.
WriteOp WriteAt(const std::vector<WriteOp>& pool, uint64_t w);
/// The pool row whose insert is in effect after write w, or -1 (base).
int StateAfterWrite(const std::vector<WriteOp>& pool, uint64_t w);

/// One connection's round: `blocks` shuffled copies of the mix, as
/// indices into w.mix. Seeded per connection and round number.
std::vector<int> RoundOrder(const Workload& w, uint64_t seed, size_t conn,
                            uint64_t round);

/// The wire request of a mix entry (the verb's query text, limit and
/// semiring).
fgq::net::Request MakeRequest(const MixEntry& e, uint64_t id);
fgq::net::Request MakeWrite(const WriteOp& op, uint64_t id);

}  // namespace servebench

#endif  // SERVEBENCH_WORKLOAD_H_
