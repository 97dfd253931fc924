#ifndef FGQ_COUNT_SEMIRING_H_
#define FGQ_COUNT_SEMIRING_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <optional>
#include <string>
#include <vector>

#include "fgq/db/value.h"
#include "fgq/util/bigint.h"
#include "fgq/util/status.h"

/// \file semiring.h
/// Commutative semirings for sum-product query evaluation.
///
/// The counting DP of Section 4.4 is one instance of a sum-product
/// computation over a commutative semiring (S, ⊕, ⊗, 0, 1): the same
/// join-tree dynamic program answers Boolean (∨,∧), counting (+,×),
/// min-plus (min,+ — cheapest witness), max-min (max,min — bottleneck)
/// and top-k workloads, with the class-by-class fine-grained bounds of
/// the Fan–Koutris–Zhao sum-product paper (see PAPERS.md).
///
/// Semantics (fixed across every instance, the differ relies on it):
/// the value of a query is
///
///     ⊕ over *distinct answers* a of ( ⊗ over the distinct head
///       variables v of Weight(a[v]) )
///
/// Each distinct head variable contributes exactly one factor, taken at
/// its first head occurrence; existential variables contribute presence
/// only, never weight. Weights are loaded per-tuple from the domain
/// element itself (Weight(v) = v for the ordered semirings), so a
/// min-plus query reads "cheapest answer by total head cost" with no
/// out-of-band weight table. Because the S-component pipeline
/// (acq_count.cc) rewrites any quantified ACQ into a quantifier-free
/// ACQ over exactly the head variables — deduplicating via set-semantics
/// Yannakakis materialization — the DP is correct for *non-idempotent*
/// semirings too: no answer is ever summed twice.
///
/// Laws every instance must satisfy (property-tested in
/// tests/semiring_test.cc, assumed by the fuzz differ):
///   * ⊕ associative, commutative, identity 0
///   * ⊗ associative, commutative, identity 1
///   * ⊗ distributes over ⊕;  0 annihilates (0 ⊗ x = 0)
/// MinPlus/TopK use saturating 64-bit addition, so the additive laws
/// hold exactly on the non-saturated range (docs/SEMIRINGS.md discusses
/// the edge).
///
/// Instances are value types with *instance* methods (TopK carries its
/// k; the real-valued instance behind WeightedCountAcq carries its weight
/// function).

namespace fgq {

/// Wire-stable semiring identifiers. The numeric values appear in the
/// count-verb request byte of the network protocol (docs/SEMIRINGS.md,
/// "Wire encodings") and in plan-cache keys; never renumber.
enum class SemiringId : uint8_t {
  kCounting = 0,  ///< (+, ×) over exact integers — the default, Theorem 4.21.
  kBoolean = 1,   ///< (∨, ∧) — decision, Theorem 4.2.
  kMinPlus = 2,   ///< (min, +) tropical — cheapest witness.
  kMaxMin = 3,    ///< (max, min) — bottleneck / best bottleneck witness.
  kTopK = 4,      ///< k-truncated tropical polynomial — k cheapest costs.
};

/// Number of registered semirings (ids are dense, 0..kNumSemirings-1).
inline constexpr uint8_t kNumSemirings = 5;

/// k used by the top-k semiring on the wire and in the serve path. The
/// C++ instance takes k at construction; the protocol pins one value so
/// a response decodes without negotiation.
inline constexpr size_t kTopKWireK = 4;

/// Stable lowercase name ("counting", "boolean", "minplus", "maxmin",
/// "topk").
const char* SemiringName(SemiringId id);

/// Parses a SemiringName back; nullopt for unknown names.
std::optional<SemiringId> ParseSemiring(const std::string& name);

/// True when `raw` is a registered SemiringId byte.
inline bool IsValidSemiringId(uint8_t raw) { return raw < kNumSemirings; }

/// Saturating signed add used by the tropical instances: +inf (the
/// min-plus Zero) is absorbing, finite overflow clamps to the nearest
/// representable bound instead of wrapping into UB.
inline int64_t SaturatingAdd(int64_t a, int64_t b) {
  int64_t s;
  if (__builtin_add_overflow(a, b, &s)) {
    return (a < 0) ? INT64_MIN : INT64_MAX;
  }
  return s;
}

/// (∨, ∧): is the query satisfiable. Weight of every element is true,
/// so the value is exactly "answer set nonempty".
struct BooleanSemiring {
  using ValueType = bool;
  static constexpr SemiringId kId = SemiringId::kBoolean;
  ValueType Zero() const { return false; }
  ValueType One() const { return true; }
  ValueType Plus(ValueType a, ValueType b) const { return a || b; }
  ValueType Times(ValueType a, ValueType b) const { return a && b; }
  ValueType Weight(Value) const { return true; }
};

/// (+, ×) over exact integers: the counting DP (CountAcq, Engine::Count)
/// runs under this instance; compiled entries count with the fused
/// vm::RunCount stream instead.
struct CountingSemiring {
  using ValueType = BigInt;
  static constexpr SemiringId kId = SemiringId::kCounting;
  ValueType Zero() const { return BigInt(0); }
  ValueType One() const { return BigInt(1); }
  ValueType Plus(const ValueType& a, const ValueType& b) const { return a + b; }
  ValueType Times(const ValueType& a, const ValueType& b) const {
    return a * b;
  }
  ValueType Weight(Value) const { return BigInt(1); }
};

/// (min, +) tropical: cheapest total head cost over all answers.
/// kInfinity (= INT64_MAX) is the additive identity "no answer".
struct MinPlusSemiring {
  using ValueType = int64_t;
  static constexpr SemiringId kId = SemiringId::kMinPlus;
  static constexpr int64_t kInfinity = INT64_MAX;
  ValueType Zero() const { return kInfinity; }
  ValueType One() const { return 0; }
  ValueType Plus(ValueType a, ValueType b) const { return std::min(a, b); }
  ValueType Times(ValueType a, ValueType b) const {
    if (a == kInfinity || b == kInfinity) return kInfinity;
    return SaturatingAdd(a, b);
  }
  ValueType Weight(Value v) const { return v; }
};

/// (max, min) bottleneck: the best (largest) over answers of the worst
/// (smallest) head element. kNegInfinity is "no answer".
struct MaxMinSemiring {
  using ValueType = int64_t;
  static constexpr SemiringId kId = SemiringId::kMaxMin;
  static constexpr int64_t kNegInfinity = INT64_MIN;
  ValueType Zero() const { return kNegInfinity; }
  ValueType One() const { return INT64_MAX; }
  ValueType Plus(ValueType a, ValueType b) const { return std::max(a, b); }
  ValueType Times(ValueType a, ValueType b) const { return std::min(a, b); }
  ValueType Weight(Value v) const { return v; }
};

/// Most costs a top-k value holds: the k of a TopKSemiring is clamped to
/// [1, kTopKCapacity], which covers the wire's kTopKWireK.
inline constexpr size_t kTopKCapacity = kTopKWireK;

/// A top-k value: at most kTopKCapacity distinct costs, ascending, held
/// inline. The folds create and combine one per answer, so the value
/// never touches the heap; copying it is a fixed-size copy.
class TopKList {
 public:
  using value_type = int64_t;
  using iterator = const int64_t*;
  using const_iterator = const int64_t*;

  TopKList() = default;
  /// From ascending, distinct costs; entries past kTopKCapacity drop.
  TopKList(std::initializer_list<int64_t> costs) {
    for (int64_t c : costs) Append(c);
  }
  TopKList(const std::vector<int64_t>& costs) {  // NOLINT: implicit
    for (int64_t c : costs) Append(c);
  }

  size_t size() const { return n_; }
  bool empty() const { return n_ == 0; }
  int64_t operator[](size_t i) const { return v_[i]; }
  int64_t back() const { return v_[n_ - 1]; }
  const_iterator begin() const { return v_; }
  const_iterator end() const { return v_ + n_; }
  std::vector<int64_t> ToVector() const { return {begin(), end()}; }

  /// Appends a cost larger than every held one, if there is room.
  void Append(int64_t c) {
    if (n_ < kTopKCapacity) v_[n_++] = c;
  }

  /// Adds `c`, keeping the k least distinct costs. Rejects at once when
  /// the list is full and `c` is no smaller than its last entry.
  void Insert(int64_t c, size_t k) {
    if (n_ == k && c >= v_[n_ - 1]) return;
    size_t i = n_;
    while (i > 0 && v_[i - 1] > c) --i;
    if (i > 0 && v_[i - 1] == c) return;
    if (n_ < k) ++n_;
    for (size_t j = n_ - 1; j > i; --j) v_[j] = v_[j - 1];
    v_[i] = c;
  }

  friend bool operator==(const TopKList& a, const TopKList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  int64_t v_[kTopKCapacity] = {};
  uint32_t n_ = 0;
};

/// k-truncated tropical polynomial: the k smallest *distinct* total head
/// costs, sorted ascending. Zero = {} (no answers), One = {0}. Plus is
/// merge-dedup-truncate; Times is pairwise saturating sums, dedup,
/// truncate. Truncation keeps the laws exact: min-k of a union/sumset
/// only depends on the min-k of the operands. A fold combines mostly
/// singletons (one weight per answer), so ⊕ of a singleton is one
/// threshold insert and ⊗ of two singletons one saturating add.
struct TopKSemiring {
  using ValueType = TopKList;
  static constexpr SemiringId kId = SemiringId::kTopK;

  explicit TopKSemiring(size_t k = kTopKWireK)
      : k_(std::clamp<size_t>(k, 1, kTopKCapacity)) {}
  size_t k() const { return k_; }

  ValueType Zero() const { return {}; }
  ValueType One() const { return {0}; }
  ValueType Plus(const ValueType& a, const ValueType& b) const {
    if (b.size() == 1 || a.size() == 1) {
      ValueType out = b.size() == 1 ? a : b;
      out.Insert(b.size() == 1 ? b[0] : a[0], k_);
      return out;
    }
    ValueType out;
    const int64_t* x = a.begin();
    const int64_t* y = b.begin();
    while (out.size() < k_ && (x != a.end() || y != b.end())) {
      const int64_t v = (y == b.end() || (x != a.end() && *x <= *y)) ? *x++
                                                                      : *y++;
      if (out.empty() || out.back() != v) out.Append(v);
    }
    return out;
  }
  ValueType Times(const ValueType& a, const ValueType& b) const {
    if (a.size() == 1 && b.size() == 1) return {SaturatingAdd(a[0], b[0])};
    // Each row of sums x + b[..] ascends (saturating addition is
    // monotone), so a row stops at its first rejected sum.
    ValueType out;
    for (int64_t x : a) {
      for (int64_t y : b) {
        const int64_t sum = SaturatingAdd(x, y);
        if (out.size() == k_ && sum >= out.back()) break;
        out.Insert(sum, k_);
      }
    }
    return out;
  }
  ValueType Weight(Value v) const { return {static_cast<int64_t>(v)}; }

 private:
  size_t k_;
};

/// A semiring-tagged result value: the ⊕-aggregate the engine, the
/// service, and the wire all hand around. Exactly one payload member is
/// meaningful, selected by `id`.
struct SemiringValue {
  SemiringId id = SemiringId::kCounting;
  BigInt count;                ///< kCounting.
  bool boolean = false;        ///< kBoolean.
  int64_t scalar = 0;          ///< kMinPlus / kMaxMin.
  std::vector<int64_t> topk;   ///< kTopK (sorted ascending, distinct).

  static SemiringValue Counting(BigInt c);
  static SemiringValue Boolean(bool b);
  static SemiringValue MinPlus(int64_t s);
  static SemiringValue MaxMin(int64_t s);
  static SemiringValue TopK(std::vector<int64_t> v);

  bool operator==(const SemiringValue& o) const;
  bool operator!=(const SemiringValue& o) const { return !(*this == o); }

  /// The wire/CLI encoding (docs/SEMIRINGS.md "Wire encodings"):
  ///   counting  -> decimal ("42"); bit-compatible with the pre-semiring
  ///                count-verb body, so old clients keep working.
  ///   boolean   -> "true" / "false"
  ///   minplus   -> decimal cost, or "inf" when no answer exists
  ///   maxmin    -> decimal, or "-inf" when no answer exists
  ///   topk      -> "[3,7,9]" (ascending, distinct), "[]" when empty
  std::string Encode() const;
  std::string ToString() const { return Encode(); }

  /// Inverse of Encode for the given id; InvalidArgument on malformed
  /// text (the client uses this to decode count-verb response bodies).
  static Result<SemiringValue> Decode(SemiringId id, const std::string& text);

  /// True when the aggregate certifies at least one answer (used by the
  /// differ's cross-semiring consistency checks: every id must agree
  /// with the Boolean verdict).
  bool Truthy() const;
};

}  // namespace fgq

#endif  // FGQ_COUNT_SEMIRING_H_
