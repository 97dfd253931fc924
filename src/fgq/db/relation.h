#ifndef FGQ_DB_RELATION_H_
#define FGQ_DB_RELATION_H_

#include <cassert>
#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "fgq/db/value.h"
#include "fgq/util/exec_options.h"
#include "fgq/util/pool_alloc.h"
#include "fgq/util/status.h"

/// \file relation.h
/// Columnar (structure-of-arrays) relation storage.
///
/// A Relation is a named bag of fixed-arity tuples stored column-wise:
/// one contiguous vector per column. All evaluation algorithms treat
/// relations as sets; Relation::SortDedup establishes set semantics in
/// O(N log N), matching the paper's convention that the input encoding
/// induces a linear order on tuples. The relations of a loaded database
/// and of every SnapshotStore snapshot are kept as such sorted sets, so
/// evaluation only re-sorts what a query permutes (see sorted()). The
/// mutators that dominate hot loops
/// (SortDedup, Filter, Project) have morsel-parallel variants taking an
/// ExecContext; with a serial context they are bit-for-bit identical to
/// the plain overloads.
///
/// Why SoA: the data-plane hot loops — key hashing for index builds and
/// probes, semijoin alive-bitmap marking, survivor compaction — each read
/// a small subset of columns across many rows. Column-wise storage turns
/// those into contiguous streams (vectorizable loads, per-column memmove
/// compaction) instead of strided row-major walks. Code that genuinely
/// needs a row materializes it explicitly (CopyRow / TupleView::ToTuple);
/// there is deliberately no pointer-to-row accessor anymore.

namespace fgq {

class Relation;

/// A borrowed view of one tuple (a row of a Relation). With columnar
/// storage a row is not contiguous, so this is a (relation, row) proxy:
/// operator[] reads straight out of the column vectors.
struct TupleView {
  const Relation* rel = nullptr;
  size_t row = 0;
  size_t arity = 0;

  inline Value operator[](size_t c) const;
  inline Tuple ToTuple() const;
};

/// A named finite relation of fixed arity.
class Relation {
 public:
  /// Backing store of one column. Pool-allocated: columns are exactly the
  /// large, short-lived buffers the semijoin sweeps copy and compact every
  /// pass, and recycling them sidesteps glibc's mmap/munmap churn (a page
  /// fault per 4 KiB of column data otherwise).
  using ColumnVec = std::vector<Value, PoolAllocator<Value>>;

  Relation() = default;
  Relation(std::string name, size_t arity)
      : name_(std::move(name)), arity_(arity), cols_(arity) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }
  size_t arity() const { return arity_; }
  /// Cached tuple count — no division on the hot path.
  size_t NumTuples() const {
    assert(arity_ == 0 || num_tuples_ == cols_[0].size());
    return arity_ == 0 ? zero_arity_count_ : num_tuples_;
  }
  bool empty() const { return NumTuples() == 0; }

  /// ||R|| contribution in the paper's size measure: #tuples * arity.
  size_t SizeWeight() const { return NumTuples() * arity_; }

  /// Appends a tuple. The tuple length must equal arity().
  void Add(const Tuple& t);
  /// Appends a tuple from a raw pointer of arity() values. (Named
  /// differently from Add so brace-initializer calls never decay to a
  /// null pointer.)
  void AddRow(const Value* t);
  /// Appends a 0-ary "present" marker (for Boolean relations).
  void AddNullary();
  /// Bulk-appends `num_rows` row-major rows of arity() values each (used
  /// to stitch externally assembled buffers back in, e.g. wire decode).
  void AppendRows(const Value* rows, size_t num_rows);
  /// Appends every row of `other` (same arity required) — column memcpy.
  void AppendFrom(const Relation& other);
  /// Appends the first `num_rows` rows of `other` (same arity required).
  void AppendPrefixFrom(const Relation& other, size_t num_rows);
  /// Appends row `i` of `other` (same arity required).
  void AddRowFrom(const Relation& other, size_t i);
  /// Adopts pre-built columns (all the same length) as a relation — the
  /// column-wise producers (atom scans) assemble output columns directly
  /// and hand them over without a row-major detour.
  static Relation FromColumns(std::string name, std::vector<ColumnVec> cols);
  /// FromColumns for columns the caller has proven to hold a sorted set
  /// (an order-keeping scan of a sorted() relation): the result is
  /// sorted() without a sort. Debug builds check the claim.
  static Relation FromSortedColumns(std::string name,
                                    std::vector<ColumnVec> cols);
  /// Pre-sizes the backing store for `num_rows` rows.
  void Reserve(size_t num_rows) {
    for (auto& col : cols_) col.reserve(num_rows);
  }

  /// Returns a proxy view of the i-th row.
  TupleView Row(size_t i) const { return TupleView{this, i, arity_}; }
  /// One cell. Two dependent loads; hot loops should hoist Column(c).
  Value At(size_t row, size_t col) const { return cols_[col][row]; }
  /// Contiguous storage of one column — the hot-loop accessor.
  const Value* Column(size_t c) const { return cols_[c].data(); }
  /// Copies row `i` into `out` (arity() values).
  void CopyRow(size_t i, Value* out) const {
    for (size_t c = 0; c < arity_; ++c) out[c] = cols_[c][i];
  }
  /// Materializes the whole relation row-major (wire encoding, test
  /// equality). O(N * arity) — not for hot paths.
  std::vector<Value> ToRowMajor() const;

  /// True when the rows are a canonical sorted set: lexicographically
  /// ascending and duplicate-free. Only SortDedup and MergeSorted
  /// establish it (Project and the atom scans keep it when their output
  /// is provably in order); the order-keeping mutators CompactRows/Filter
  /// preserve it; appends and resorts clear it. The data plane keys fast
  /// paths off this: preparation skips its sort, a sorted column probes
  /// in runs, and two relations sorted on a shared leading column can be
  /// semijoined by a linear merge with no hash table at all.
  bool sorted() const { return sorted_; }

  /// First row not less than `t` (arity() values) in lexicographic
  /// order, or NumTuples() when every row is less. Requires sorted().
  size_t LowerBound(const Value* t) const;
  /// Lexicographic comparison of row `i` against the row `t`: negative,
  /// zero or positive as row `i` is less than, equal to or greater than it.
  int CompareRow(size_t i, const Value* t) const;

  /// The order-keeping merge behind SnapshotStore::Apply. Requires
  /// sorted(). Returns this relation without the rows `deleted`
  /// (ascending row ids) and with the rows of `inserts` (a sorted set
  /// equal to no surviving row), row i placed before row `insert_at[i]`
  /// of this relation (nondecreasing, as LowerBound gives). Each column
  /// is written as memcpy'd runs between those positions, so the cost is
  /// one pass over the columns whatever the batch. The result is sorted().
  Relation MergeSorted(const std::vector<uint32_t>& deleted,
                       const Relation& inserts,
                       const std::vector<uint32_t>& insert_at) const;

  /// Sorts rows lexicographically and removes duplicates (set semantics).
  void SortDedup();
  /// Parallel variant: morsel-local sorts plus a dedup merge. The result
  /// is the same canonical sorted set for any thread count.
  void SortDedup(const ExecContext& ctx);

  /// Sorts rows lexicographically by the given column permutation/subset
  /// order, e.g. {1,0} sorts by column 1 then column 0.
  void SortBy(const std::vector<size_t>& cols);

  /// Returns the projection of this relation onto `cols` (with dedup).
  /// On a sorted() relation the identity projection is a copy and a
  /// prefix projection (cols = 0..k-1) deduplicates adjacent rows in one
  /// pass; every other projection sorts.
  Relation Project(const std::vector<size_t>& cols,
                   const std::string& name) const;
  /// Parallel variant (same result for any thread count).
  Relation Project(const std::vector<size_t>& cols, const std::string& name,
                   const ExecContext& ctx) const;

  /// Keeps exactly the rows whose byte in `keep` is nonzero (one byte per
  /// row, keep.size() == NumTuples()): detects runs of survivors once and
  /// memmoves each run per column — the selection-vector semijoin sweeps
  /// materialize their survivors through this single compaction pass.
  /// Preserves sorted order (a subsequence of a sorted sequence).
  void CompactRows(const std::vector<uint8_t>& keep);
  /// Pointer form (NumTuples() bytes) for callers whose bitmap lives in a
  /// pool-recycled buffer rather than a plain vector.
  void CompactRows(const uint8_t* keep);

  /// Keeps only the rows satisfying `pred`.
  void Filter(const std::function<bool(TupleView)>& pred);
  /// Parallel variant: `pred` is invoked concurrently from pool threads
  /// (it must be thread-safe); rows keep their relative order.
  void Filter(const std::function<bool(TupleView)>& pred,
              const ExecContext& ctx);

  /// True if some row equals `t` (linear scan; use HashIndex for bulk).
  bool Contains(const Tuple& t) const;

  /// Largest value appearing in the relation, or -1 when empty.
  Value MaxValue() const;

  /// Renders up to `limit` tuples for debugging/examples.
  std::string ToString(size_t limit = 20) const;

 private:
  void ApplyOrder(const std::vector<uint32_t>& order, size_t keep_n);
  /// True when the rows are strictly ascending (what sorted() promises).
  bool IsSortedSet() const;

  std::string name_;
  size_t arity_ = 0;
  size_t zero_arity_count_ = 0;
  size_t num_tuples_ = 0;   // cols_[i].size(), maintained by mutators.
  bool sorted_ = false;     // Rows in canonical lexicographic order.
  std::vector<ColumnVec> cols_;  // arity_ columns, equal length.
};

inline Value TupleView::operator[](size_t c) const { return rel->At(row, c); }

inline Tuple TupleView::ToTuple() const {
  Tuple t(arity);
  for (size_t c = 0; c < arity; ++c) t[c] = rel->At(row, c);
  return t;
}

}  // namespace fgq

#endif  // FGQ_DB_RELATION_H_
