#include "fgq/db/relation.h"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <numeric>
#include <queue>
#include <sstream>

namespace fgq {

namespace {

/// Row count below which parallel mutators fall back to the serial path:
/// scheduling a morsel costs more than sorting a few thousand rows.
constexpr size_t kParallelRowCutoff = size_t{1} << 13;

}  // namespace

void Relation::Add(const Tuple& t) {
  assert(t.size() == arity_);
  if (arity_ == 0) {
    zero_arity_count_ = 1;
    return;
  }
  for (size_t c = 0; c < arity_; ++c) cols_[c].push_back(t[c]);
  ++num_tuples_;
  sorted_ = false;
}

void Relation::AddRow(const Value* t) {
  if (arity_ == 0) {
    zero_arity_count_ = 1;
    return;
  }
  for (size_t c = 0; c < arity_; ++c) cols_[c].push_back(t[c]);
  ++num_tuples_;
  sorted_ = false;
}

void Relation::AddNullary() {
  assert(arity_ == 0);
  zero_arity_count_ = 1;
}

void Relation::AppendRows(const Value* rows, size_t num_rows) {
  if (arity_ == 0) {
    if (num_rows > 0) zero_arity_count_ = 1;
    return;
  }
  for (size_t c = 0; c < arity_; ++c) {
    ColumnVec& col = cols_[c];
    col.resize(num_tuples_ + num_rows);
    Value* dst = col.data() + num_tuples_;
    const Value* src = rows + c;
    for (size_t i = 0; i < num_rows; ++i) dst[i] = src[i * arity_];
  }
  num_tuples_ += num_rows;
  sorted_ = false;
}

void Relation::AppendFrom(const Relation& other) {
  AppendPrefixFrom(other, other.NumTuples());
}

void Relation::AppendPrefixFrom(const Relation& other, size_t num_rows) {
  assert(other.arity_ == arity_);
  assert(num_rows <= other.NumTuples());
  if (arity_ == 0) {
    if (num_rows > 0) zero_arity_count_ = 1;
    return;
  }
  for (size_t c = 0; c < arity_; ++c) {
    cols_[c].insert(cols_[c].end(), other.cols_[c].begin(),
                    other.cols_[c].begin() + num_rows);
  }
  num_tuples_ += num_rows;
  sorted_ = false;
}

void Relation::AddRowFrom(const Relation& other, size_t i) {
  assert(other.arity_ == arity_);
  if (arity_ == 0) {
    zero_arity_count_ = 1;
    return;
  }
  for (size_t c = 0; c < arity_; ++c) cols_[c].push_back(other.cols_[c][i]);
  ++num_tuples_;
  sorted_ = false;
}

Relation Relation::FromColumns(std::string name, std::vector<ColumnVec> cols) {
  Relation out(std::move(name), cols.size());
  if (cols.empty()) return out;
  const size_t n = cols[0].size();
  for ([[maybe_unused]] const ColumnVec& col : cols) {
    assert(col.size() == n);
  }
  out.cols_ = std::move(cols);
  out.num_tuples_ = n;
  return out;
}

Relation Relation::FromSortedColumns(std::string name,
                                     std::vector<ColumnVec> cols) {
  Relation out = FromColumns(std::move(name), std::move(cols));
  assert(out.IsSortedSet());
  out.sorted_ = true;
  return out;
}

int Relation::CompareRow(size_t i, const Value* t) const {
  for (size_t c = 0; c < arity_; ++c) {
    const Value v = cols_[c][i];
    if (v != t[c]) return v < t[c] ? -1 : 1;
  }
  return 0;
}

bool Relation::IsSortedSet() const {
  Tuple prev(arity_);
  for (size_t i = 0; i < num_tuples_; ++i) {
    if (i > 0 && CompareRow(i, prev.data()) <= 0) return false;
    CopyRow(i, prev.data());
  }
  return true;
}

size_t Relation::LowerBound(const Value* t) const {
  assert(sorted_);
  size_t lo = 0, hi = NumTuples();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareRow(mid, t) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Relation Relation::MergeSorted(const std::vector<uint32_t>& deleted,
                               const Relation& inserts,
                               const std::vector<uint32_t>& insert_at) const {
  assert(sorted_ && inserts.arity_ == arity_);
  assert(insert_at.size() == inserts.NumTuples());
  Relation out(name_, arity_);
  out.sorted_ = true;
  if (arity_ == 0) {
    // A nullary set holds the empty tuple or nothing.
    if (NumTuples() > deleted.size() || !inserts.empty()) {
      out.zero_arity_count_ = 1;
    }
    return out;
  }
  // Plan the output once as runs of old survivors and of inserts, then
  // stream every column through the same runs with memcpy.
  struct Run {
    const Relation* from;
    size_t begin, len;
  };
  std::vector<Run> runs;
  const size_t n = num_tuples_, m = inserts.num_tuples_;
  size_t pos = 0, di = 0, ii = 0, total = 0;
  while (pos < n || ii < m) {
    if (ii < m && insert_at[ii] <= pos) {
      size_t j = ii + 1;
      while (j < m && insert_at[j] <= pos) ++j;
      runs.push_back({&inserts, ii, j - ii});
      total += j - ii;
      ii = j;
    } else if (di < deleted.size() && deleted[di] == pos) {
      ++di;
      ++pos;
    } else {
      size_t end = n;
      if (di < deleted.size()) end = std::min<size_t>(end, deleted[di]);
      if (ii < m) end = std::min<size_t>(end, insert_at[ii]);
      runs.push_back({this, pos, end - pos});
      total += end - pos;
      pos = end;
    }
  }
  for (size_t c = 0; c < arity_; ++c) {
    ColumnVec& col = out.cols_[c];
    col.resize(total);
    Value* dst = col.data();
    for (const Run& r : runs) {
      std::memcpy(dst, r.from->cols_[c].data() + r.begin,
                  r.len * sizeof(Value));
      dst += r.len;
    }
  }
  out.num_tuples_ = total;
  assert(out.IsSortedSet());
  return out;
}

std::vector<Value> Relation::ToRowMajor() const {
  std::vector<Value> out(num_tuples_ * arity_);
  for (size_t c = 0; c < arity_; ++c) {
    const Value* src = cols_[c].data();
    Value* dst = out.data() + c;
    for (size_t i = 0; i < num_tuples_; ++i) dst[i * arity_] = src[i];
  }
  return out;
}

/// Rewrites every column as the gather of its first `keep_n` entries of
/// `order` — the one materialization shared by the sort paths.
void Relation::ApplyOrder(const std::vector<uint32_t>& order, size_t keep_n) {
  ColumnVec tmp(keep_n);
  for (size_t c = 0; c < arity_; ++c) {
    const Value* src = cols_[c].data();
    for (size_t i = 0; i < keep_n; ++i) tmp[i] = src[order[i]];
    cols_[c].assign(tmp.begin(), tmp.end());
  }
  num_tuples_ = keep_n;
  sorted_ = false;  // Callers that establish canonical order re-set it.
}

void Relation::SortDedup() {
  if (arity_ == 0 || num_tuples_ == 0) {
    sorted_ = true;
    return;
  }
  const size_t n = num_tuples_;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  auto row_less = [this](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < arity_; ++c) {
      const Value va = cols_[c][a], vb = cols_[c][b];
      if (va != vb) return va < vb;
    }
    return false;
  };
  std::sort(order.begin(), order.end(), row_less);
  // Dedup equal consecutive rows of the sorted order in place.
  auto rows_equal = [this](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < arity_; ++c) {
      if (cols_[c][a] != cols_[c][b]) return false;
    }
    return true;
  };
  size_t w = 1;
  for (size_t i = 1; i < n; ++i) {
    if (!rows_equal(order[i], order[w - 1])) order[w++] = order[i];
  }
  ApplyOrder(order, w);
  sorted_ = true;
}

void Relation::SortDedup(const ExecContext& ctx) {
  ThreadPool* pool = ctx.pool();
  const size_t n = NumTuples();
  if (pool == nullptr || pool->num_threads() <= 1 || arity_ == 0 ||
      n < kParallelRowCutoff) {
    SortDedup();
    return;
  }
  // Morsel-parallel sort: each chunk of the row-index array is sorted by a
  // pool lane, then one dedup pass k-way-merges the sorted runs. The
  // output is the canonical sorted set, identical to the serial result.
  auto row_less = [this](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < arity_; ++c) {
      const Value va = cols_[c][a], vb = cols_[c][b];
      if (va != vb) return va < vb;
    }
    return false;
  };
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  const size_t num_runs =
      std::min<size_t>(pool->num_threads(), (n + kParallelRowCutoff - 1) /
                                                kParallelRowCutoff);
  const size_t run_len = (n + num_runs - 1) / num_runs;
  pool->ParallelFor(num_runs, 1, [&](size_t rb, size_t re) {
    for (size_t r = rb; r < re; ++r) {
      const size_t begin = r * run_len;
      const size_t end = std::min(n, begin + run_len);
      std::sort(order.begin() + begin, order.begin() + end, row_less);
    }
  });

  // K-way merge with dedup into a fresh order array.
  struct RunCursor {
    size_t pos;
    size_t end;
  };
  std::vector<RunCursor> runs;
  for (size_t r = 0; r < num_runs; ++r) {
    const size_t begin = r * run_len;
    const size_t end = std::min(n, begin + run_len);
    if (begin < end) runs.push_back({begin, end});
  }
  auto heap_greater = [&](size_t a, size_t b) {
    // Min-heap on the head rows; ties broken by run index for stability.
    if (row_less(order[runs[a].pos], order[runs[b].pos])) return false;
    if (row_less(order[runs[b].pos], order[runs[a].pos])) return true;
    return a > b;
  };
  std::priority_queue<size_t, std::vector<size_t>, decltype(heap_greater)>
      heap(heap_greater);
  for (size_t r = 0; r < runs.size(); ++r) heap.push(r);
  auto rows_equal = [this](uint32_t a, uint32_t b) {
    for (size_t c = 0; c < arity_; ++c) {
      if (cols_[c][a] != cols_[c][b]) return false;
    }
    return true;
  };
  std::vector<uint32_t> merged;
  merged.reserve(n);
  while (!heap.empty()) {
    const size_t r = heap.top();
    heap.pop();
    const uint32_t row = order[runs[r].pos];
    if (merged.empty() || !rows_equal(row, merged.back())) {
      merged.push_back(row);
    }
    if (++runs[r].pos < runs[r].end) heap.push(r);
  }
  ApplyOrder(merged, merged.size());
  sorted_ = true;
}

void Relation::SortBy(const std::vector<size_t>& cols) {
  if (arity_ == 0 || num_tuples_ == 0) return;
  const size_t n = num_tuples_;
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t c : cols) {
      const Value va = cols_[c][a], vb = cols_[c][b];
      if (va != vb) return va < vb;
    }
    return false;
  });
  ApplyOrder(order, n);
}

Relation Relation::Project(const std::vector<size_t>& cols,
                           const std::string& name) const {
  return Project(cols, name, ExecContext());
}

Relation Relation::Project(const std::vector<size_t>& cols,
                           const std::string& name,
                           const ExecContext& ctx) const {
  Relation out(name, cols.size());
  const size_t n = NumTuples();
  if (cols.empty()) {
    if (n > 0) out.AddNullary();
    return out;
  }
  // Column-wise the projection itself is free: each output column is a
  // straight copy of a source column. All the work is the dedup, and a
  // prefix of a sorted set needs no sort for it: equal projected rows
  // are adjacent.
  const size_t k = cols.size();
  bool prefix = true;
  for (size_t j = 0; j < k; ++j) prefix = prefix && cols[j] == j;
  for (size_t j = 0; j < k; ++j) out.cols_[j] = cols_[cols[j]];
  out.num_tuples_ = n;
  if (!sorted_ || !prefix) {
    out.SortDedup(ctx);
    return out;
  }
  if (k < arity_ && n > 1) {
    std::vector<uint8_t> keep(n, 1);
    for (size_t i = 1; i < n; ++i) {
      bool same = true;
      for (size_t j = 0; j < k && same; ++j) {
        same = out.cols_[j][i] == out.cols_[j][i - 1];
      }
      keep[i] = same ? 0 : 1;
    }
    out.CompactRows(keep);
  }
  out.sorted_ = true;
  return out;
}

void Relation::CompactRows(const std::vector<uint8_t>& keep) {
  assert(keep.size() == NumTuples());
  CompactRows(keep.data());
}

void Relation::CompactRows(const uint8_t* keep) {
  if (arity_ == 0) {
    if (zero_arity_count_ > 0 && !keep[0]) zero_arity_count_ = 0;
    return;
  }
  const size_t n = num_tuples_;
  // Detect runs of survivors once, then stream each column with memmove:
  // the run list is tiny next to the column data and every byte moved is
  // a contiguous copy.
  struct Run {
    size_t begin, len, dst;
  };
  std::vector<Run> runs;
  size_t w = 0;
  for (size_t i = 0; i < n;) {
    if (!keep[i]) {
      ++i;
      continue;
    }
    size_t j = i + 1;
    while (j < n && keep[j]) ++j;
    runs.push_back({i, j - i, w});
    w += j - i;
    i = j;
  }
  if (w == n) return;  // Nothing died; columns already compact.
  for (size_t c = 0; c < arity_; ++c) {
    Value* base = cols_[c].data();
    for (const Run& r : runs) {
      if (r.dst != r.begin) {
        std::memmove(base + r.dst, base + r.begin, r.len * sizeof(Value));
      }
    }
    cols_[c].resize(w);
  }
  num_tuples_ = w;
}

void Relation::Filter(const std::function<bool(TupleView)>& pred) {
  if (arity_ == 0) {
    if (zero_arity_count_ > 0 && !pred(TupleView{nullptr, 0, 0})) {
      zero_arity_count_ = 0;
    }
    return;
  }
  const size_t n = NumTuples();
  std::vector<uint8_t> keep(n);
  for (size_t i = 0; i < n; ++i) keep[i] = pred(Row(i)) ? 1 : 0;
  CompactRows(keep);
}

void Relation::Filter(const std::function<bool(TupleView)>& pred,
                      const ExecContext& ctx) {
  ThreadPool* pool = ctx.pool();
  const size_t n = NumTuples();
  if (pool == nullptr || pool->num_threads() <= 1 || arity_ == 0 ||
      n < kParallelRowCutoff) {
    Filter(pred);
    return;
  }
  // Evaluate the predicate morsel-parallel, then compact serially (the
  // compaction is a straight memmove pass, well under the predicate cost).
  std::vector<uint8_t> keep(n);
  pool->ParallelFor(n, ctx.morsel_size(), [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      keep[i] = pred(Row(i)) ? 1 : 0;
    }
  });
  CompactRows(keep);
}

bool Relation::Contains(const Tuple& t) const {
  assert(t.size() == arity_);
  if (arity_ == 0) return zero_arity_count_ > 0;
  const size_t n = NumTuples();
  for (size_t i = 0; i < n; ++i) {
    bool eq = true;
    for (size_t c = 0; c < arity_; ++c) {
      if (cols_[c][i] != t[c]) {
        eq = false;
        break;
      }
    }
    if (eq) return true;
  }
  return false;
}

Value Relation::MaxValue() const {
  Value m = -1;
  for (const ColumnVec& col : cols_) {
    for (Value v : col) m = std::max(m, v);
  }
  return m;
}

std::string Relation::ToString(size_t limit) const {
  std::ostringstream os;
  os << name_ << "/" << arity_ << " [" << NumTuples() << " tuples]";
  const size_t n = std::min(limit, NumTuples());
  for (size_t i = 0; i < n; ++i) {
    os << "\n  (";
    for (size_t j = 0; j < arity_; ++j) {
      if (j) os << ", ";
      os << Row(i)[j];
    }
    os << ")";
  }
  if (NumTuples() > limit) os << "\n  ...";
  return os.str();
}

}  // namespace fgq
