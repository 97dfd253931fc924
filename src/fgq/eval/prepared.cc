#include "fgq/eval/prepared.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <functional>
#include <optional>

#include "fgq/db/index.h"
#include "fgq/db/tag_key_set.h"
#include "fgq/trace/trace.h"
#include "fgq/util/hash.h"
#include "fgq/util/simd.h"

namespace fgq {

namespace {

/// Combined row count below which a semijoin/join runs serially.
constexpr size_t kParallelRowCutoff = size_t{1} << 13;

/// Records how many probes a batched kernel resolved and through which
/// path: the SIMD tiers count batch resolutions (`simd_probe_batches`),
/// the forced-scalar path counts raw probes (`scalar_fallback_probes`).
/// One counter bump per kernel call — counters are context-level and
/// thread-safe, so this is safe from pool threads.
void TraceProbePath(const ExecContext& ctx, size_t num_probes) {
  if (num_probes == 0) return;
  if (ActiveSimdPath() == SimdPath::kScalar) {
    TraceCounter(ctx.trace(), "scalar_fallback_probes", num_probes);
  } else {
    TraceCounter(ctx.trace(), "simd_probe_batches", (num_probes + 7) / 8);
  }
}

}  // namespace

int PreparedAtom::VarIndex(const std::string& v) const {
  for (size_t i = 0; i < vars.size(); ++i) {
    if (vars[i] == v) return static_cast<int>(i);
  }
  return -1;
}

std::vector<size_t> PreparedAtom::SharedColumns(
    const PreparedAtom& other) const {
  std::vector<size_t> out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (other.VarIndex(vars[i]) >= 0) out.push_back(i);
  }
  return out;
}

Result<PreparedAtom> PrepareAtom(const Atom& atom, const Database& db,
                                 const ExecContext& ctx) {
  FGQ_ASSIGN_OR_RETURN(const Relation* rel, db.Find(atom.relation));
  if (rel->arity() != atom.arity()) {
    return Status::InvalidArgument(
        "atom " + atom.ToString() + " has arity " +
        std::to_string(atom.arity()) + " but relation '" + atom.relation +
        "' has arity " + std::to_string(rel->arity()));
  }
  PreparedAtom out;
  out.vars = atom.Variables();
  // Column of the first occurrence of each distinct variable.
  std::vector<size_t> first_col(out.vars.size());
  for (size_t v = 0; v < out.vars.size(); ++v) {
    for (size_t j = 0; j < atom.args.size(); ++j) {
      if (atom.args[j].is_var() && atom.args[j].var == out.vars[v]) {
        first_col[v] = j;
        break;
      }
    }
  }
  const size_t arity = atom.args.size();
  const size_t n = rel->NumTuples();
  // One bulk increment per atom scan (PrepareAtoms may run this on a pool
  // thread — counters are context-level and thread-safe, unlike spans).
  TraceCounter(ctx.trace(), "tuples_scanned", n);

  // Hoisted column base pointers: the admission test and the projection
  // below read cells through these, never materializing a row.
  std::vector<const Value*> ac(arity);
  for (size_t j = 0; j < arity; ++j) ac[j] = rel->Column(j);

  // Row admission test: constants must match and repeated variables must
  // agree with their first occurrence. always_inline for the same reason
  // as the mark kernels: the per-row call must stay folded into the scan
  // loop whatever GCC's unit-growth budget decides.
  auto keep_row = [&](size_t i) __attribute__((always_inline)) {
    for (size_t j = 0; j < arity; ++j) {
      const Term& a = atom.args[j];
      if (!a.is_var()) {
        if (ac[j][i] != a.constant) return false;
        continue;
      }
      for (size_t v = 0; v < out.vars.size(); ++v) {
        if (out.vars[v] == a.var) {
          if (ac[j][i] != ac[first_col[v]][i]) return false;
          break;
        }
      }
    }
    return true;
  };

  if (out.vars.empty()) {
    // All-constant atom: the output is nullary — present iff any row
    // passes admission.
    out.rel = Relation(atom.relation, 0);
    for (size_t i = 0; i < n; ++i) {
      if (keep_row(i)) {
        out.rel.AddNullary();
        break;
      }
    }
    return out;
  }

  std::vector<Relation::ColumnVec> out_cols(out.vars.size());
  if (out.vars.size() == arity) {
    // Distinct variables in every column: nothing to filter or reorder.
    for (size_t j = 0; j < arity; ++j) out_cols[j].assign(ac[j], ac[j] + n);
  } else {
    // Admission bitmap first (morsel-parallel; bytes are
    // position-disjoint), then each output column is one filtered gather
    // of a source column — fully column-wise, identical for any thread
    // count.
    std::vector<uint8_t> keep(n);
    ThreadPool* pool = ctx.pool();
    auto admit_range = [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) keep[i] = keep_row(i) ? 1 : 0;
    };
    if (pool == nullptr || pool->num_threads() <= 1 ||
        n < kParallelRowCutoff) {
      admit_range(0, n);
    } else {
      pool->ParallelFor(n, ctx.morsel_size(), admit_range);
    }
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) kept += keep[i];
    for (size_t v = 0; v < out.vars.size(); ++v) {
      const Value* src = ac[first_col[v]];
      Relation::ColumnVec& col = out_cols[v];
      col.reserve(kept);
      for (size_t i = 0; i < n; ++i) {
        if (keep[i]) col.push_back(src[i]);
      }
    }
  }
  // Variables are listed in first-occurrence order, so first_col ascends
  // and every dropped column is a constant or a repeat of an earlier kept
  // column: two admitted rows of a sorted set first differ in a kept
  // column, and the scan of a sorted relation is already a sorted set.
  assert(std::adjacent_find(first_col.begin(), first_col.end(),
                            std::greater_equal<size_t>()) == first_col.end());
  if (rel->sorted()) {
    out.rel = Relation::FromSortedColumns(atom.relation, std::move(out_cols));
  } else {
    out.rel = Relation::FromColumns(atom.relation, std::move(out_cols));
    out.rel.SortDedup(ctx);
  }
  return out;
}

Result<std::vector<PreparedAtom>> PrepareAtoms(const ConjunctiveQuery& q,
                                               const Database& db,
                                               const ExecContext& ctx) {
  std::vector<const Atom*> positive;
  for (const Atom& a : q.atoms()) {
    if (!a.negated) positive.push_back(&a);
  }
  ThreadPool* pool = ctx.pool();
  if (pool == nullptr || pool->num_threads() <= 1 || positive.size() <= 1) {
    std::vector<PreparedAtom> out;
    out.reserve(positive.size());
    for (const Atom* a : positive) {
      FGQ_ASSIGN_OR_RETURN(PreparedAtom pa, PrepareAtom(*a, db, ctx));
      out.push_back(std::move(pa));
    }
    return out;
  }
  // One task per atom; each task morsel-chunks its own scan. Slots are
  // disjoint, so no synchronization beyond the loop barrier is needed.
  std::vector<std::optional<Result<PreparedAtom>>> slots(positive.size());
  pool->ParallelFor(positive.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      slots[i].emplace(PrepareAtom(*positive[i], db, ctx));
    }
  });
  std::vector<PreparedAtom> out;
  out.reserve(positive.size());
  for (std::optional<Result<PreparedAtom>>& slot : slots) {
    if (!slot->ok()) return slot->status();
    out.push_back(std::move(*slot).value());
  }
  return out;
}

namespace {

/// Pool-recycled alive bitmap: one byte per row, and at fixture sizes the
/// buffer crosses malloc's mmap threshold, so recycling matters.
using ByteVec = std::vector<uint8_t, PoolAllocator<uint8_t>>;

/// Linear-merge mark over two relations sorted on a shared leading
/// column: both key columns are nondecreasing, so one forward pass over
/// each side decides every target run with no hash set at all. Clears the
/// alive byte of every target row whose key is absent from the source;
/// returns the number of rows left alive.
size_t MergeMarkMisses(const Value* tv, size_t nt, const Value* sv, size_t ns,
                       uint8_t* alive) {
  size_t count = 0;
  size_t j = 0;
  for (size_t i = 0; i < nt;) {
    const Value v = tv[i];
    size_t e = i + 1;
    while (e < nt && tv[e] == v) ++e;
    while (j < ns && sv[j] < v) ++j;
    if (j < ns && sv[j] == v) {
      for (; i < e; ++i) count += alive[i] ? 1 : 0;
    } else {
      for (; i < e; ++i) alive[i] = 0;
    }
  }
  return count;
}

/// One semijoin as a pure bitmap update: clears the alive byte of every
/// `target` row whose shared-variable key has no alive counterpart in
/// `source`. Returns the new alive count of the target.
size_t SemijoinMark(const PreparedAtom& target, ByteVec* t_alive,
                    size_t t_count, const PreparedAtom& source,
                    const ByteVec* s_alive, size_t s_count,
                    const ExecContext& ctx) {
  std::vector<size_t> target_cols = target.SharedColumns(source);
  if (target_cols.empty()) {
    // No shared variables: reduction only applies when source is empty
    // (the cross-product factor vanishes).
    if (s_count == 0 && t_count > 0) {
      std::fill(t_alive->begin(), t_alive->end(), 0);
      return 0;
    }
    return t_count;
  }
  std::vector<size_t> source_cols;
  for (size_t c : target_cols) {
    source_cols.push_back(
        static_cast<size_t>(source.VarIndex(target.vars[c])));
  }
  const size_t nt = target.rel.NumTuples();
  TraceCounter(ctx.trace(), "tuples_probed", nt);
  // Sorted-merge fast path: a single shared column that leads the
  // canonical sort order on both sides (the dominant join-tree connector
  // shape). Both columns are nondecreasing, so a linear merge replaces
  // the hash-set build and every probe. Requires a full source (no source
  // bitmap — dead source rows can't be skipped by value order).
  if (target_cols.size() == 1 && target_cols[0] == 0 && source_cols[0] == 0 &&
      s_alive == nullptr && target.rel.sorted() && source.rel.sorted()) {
    TraceCounter(ctx.trace(), "sorted_merge_marks", 1);
    return MergeMarkMisses(target.rel.Column(0), nt, source.rel.Column(0),
                           source.rel.NumTuples(), t_alive->data());
  }
  ThreadPool* pool = ctx.pool();
  const bool serial = pool == nullptr || pool->num_threads() <= 1 ||
                      nt < kParallelRowCutoff;
  // Dense-domain fast path: single-column connector whose source values
  // densely fill their [min, max] range (the normal shape for dictionary-
  // encoded ids). One presence bit per range value, probed with a single
  // shift-and-test — no hash, and the bitmap is a few KiB of L1-resident
  // state. Build() declines sparse or wide ranges, falling through to the
  // tag table.
  if (target_cols.size() == 1) {
    DenseKeySet dense;
    if (dense.Build(source.rel.Column(source_cols[0]),
                    s_alive == nullptr ? nullptr : s_alive->data(),
                    source.rel.NumTuples())) {
      TraceCounter(ctx.trace(), "dense_bitmap_marks", 1);
      const Value* tcol = target.rel.Column(target_cols[0]);
      if (serial) {
        return static_cast<size_t>(
            dense.MarkMisses(tcol, t_alive->data(), 0, nt));
      }
      std::atomic<uint64_t> live{0};
      pool->ParallelFor(nt, ctx.morsel_size(), [&](size_t begin, size_t end) {
        live.fetch_add(dense.MarkMisses(tcol, t_alive->data(), begin, end),
                       std::memory_order_relaxed);
      });
      return static_cast<size_t>(live.load());
    }
  }
  // The set build is a single O(|source|) pass; probes fan out per morsel
  // through the batched mark kernels (disjoint alive bytes, so the
  // marking is race-free and deterministic; each kernel call returns its
  // range's survivor count, so the bitmap is never rescanned).
  TagKeySet keys(source.rel, source_cols,
                 s_alive == nullptr ? nullptr : s_alive->data());
  TraceProbePath(ctx, nt);
  std::vector<const Value*> tcols;
  tcols.reserve(target_cols.size());
  for (size_t c : target_cols) tcols.push_back(target.rel.Column(c));
  if (serial) {
    return static_cast<size_t>(
        keys.MarkMisses(tcols.data(), t_alive->data(), 0, nt));
  }
  std::atomic<uint64_t> live{0};
  pool->ParallelFor(nt, ctx.morsel_size(), [&](size_t begin, size_t end) {
    live.fetch_add(keys.MarkMisses(tcols.data(), t_alive->data(), begin, end),
                   std::memory_order_relaxed);
  });
  return static_cast<size_t>(live.load());
}

/// All-alive bitmap for one prepared atom (nullary atoms count their
/// present marker as one row).
ByteVec AllAlive(const PreparedAtom& atom) {
  return ByteVec(atom.rel.NumTuples(), 1);
}

}  // namespace

void SemijoinReduce(PreparedAtom* target, const PreparedAtom& source,
                    const ExecContext& ctx) {
  const size_t nt = target->rel.NumTuples();
  ByteVec alive = AllAlive(*target);
  const size_t count = SemijoinMark(*target, &alive, nt, source,
                                    /*s_alive=*/nullptr,
                                    source.rel.NumTuples(), ctx);
  if (count != nt) target->rel.CompactRows(alive.data());
}

PreparedAtom JoinProject(const PreparedAtom& left, const PreparedAtom& right,
                         const std::vector<std::string>& keep_vars,
                         const ExecContext& ctx) {
  PreparedAtom out;
  out.vars = keep_vars;
  out.rel = Relation("join", keep_vars.size());

  std::vector<size_t> left_cols = left.SharedColumns(right);
  std::vector<size_t> right_cols;
  for (size_t c : left_cols) {
    right_cols.push_back(static_cast<size_t>(right.VarIndex(left.vars[c])));
  }
  HashIndex right_index(right.rel, right_cols, ctx);
  TraceCounter(ctx.trace(), "index_bytes", right_index.MemoryBytes());
  TraceCounter(ctx.trace(), "tuples_probed", left.rel.NumTuples());
  TraceProbePath(ctx, left.rel.NumTuples());

  // Where does each kept variable come from? Resolved straight to a
  // column base pointer; `from_left` picks whether the probe row or the
  // matched row indexes it.
  struct Source {
    bool from_left;
    const Value* col;
  };
  std::vector<Source> sources;
  sources.reserve(keep_vars.size());
  for (const std::string& v : keep_vars) {
    int lc = left.VarIndex(v);
    if (lc >= 0) {
      sources.push_back({true, left.rel.Column(static_cast<size_t>(lc))});
    } else {
      sources.push_back(
          {false,
           right.rel.Column(static_cast<size_t>(right.VarIndex(v)))});
    }
  }

  const size_t nl = left.rel.NumTuples();
  auto probe_range = [&](size_t begin, size_t end, Relation* sink) {
    std::vector<Value> t(keep_vars.size());
    // Batched probe: hashes ahead out of the left key columns and
    // prefetches tag groups (see HashIndex::ProbeRows).
    right_index.ProbeRows(
        left.rel, left_cols, begin, end,
        [&](size_t i, HashIndex::RowSpan span) {
          for (uint32_t ri : span) {
            for (size_t j = 0; j < sources.size(); ++j) {
              t[j] = sources[j].from_left ? sources[j].col[i]
                                          : sources[j].col[ri];
            }
            sink->AddRow(t.data());
          }
        });
  };

  ThreadPool* pool = ctx.pool();
  if (pool == nullptr || pool->num_threads() <= 1 ||
      nl < kParallelRowCutoff) {
    probe_range(0, nl, &out.rel);
  } else {
    const size_t grain = ctx.morsel_size();
    const size_t num_chunks = (nl + grain - 1) / grain;
    std::vector<Relation> parts(num_chunks,
                                Relation("join", keep_vars.size()));
    pool->ParallelFor(nl, grain, [&](size_t begin, size_t end) {
      probe_range(begin, end, &parts[begin / grain]);
    });
    for (const Relation& part : parts) out.rel.AppendFrom(part);
  }
  out.rel.SortDedup(ctx);
  return out;
}

namespace {

/// Depth of every tree node (root depth 0), grouped per level.
std::vector<std::vector<int>> NodesByDepth(const JoinTree& tree) {
  std::vector<int> order = tree.TopDownOrder();
  std::vector<size_t> depth(tree.parent.size(), 0);
  size_t max_depth = 0;
  for (int e : order) {
    if (tree.parent[e] >= 0) {
      depth[e] = depth[tree.parent[e]] + 1;
      max_depth = std::max(max_depth, depth[e]);
    }
  }
  std::vector<std::vector<int>> levels(max_depth + 1);
  for (int e : order) levels[depth[e]].push_back(e);
  return levels;
}

}  // namespace

void SemijoinSweepBottomUp(std::vector<PreparedAtom>* atoms,
                           const JoinTree& tree, const ExecContext& ctx) {
  if (ctx.pool() == nullptr) {
    for (int e : tree.BottomUpOrder()) {
      if (ctx.cancel().cancelled()) return;
      int p = tree.parent[e];
      if (p >= 0) SemijoinReduce(&(*atoms)[p], (*atoms)[e], ctx);
    }
    return;
  }
  // Level-synchronous: all parents of one depth reduce concurrently. A
  // parent absorbs all of its children in one task (they mutate the same
  // atom), and distinct parents touch disjoint atoms.
  std::vector<std::vector<int>> levels = NodesByDepth(tree);
  for (size_t d = levels.size(); d-- > 0;) {
    if (ctx.cancel().cancelled()) return;
    std::vector<int> parents;
    for (int e : levels[d]) {
      if (!tree.children[e].empty()) parents.push_back(e);
    }
    if (parents.empty()) continue;
    ctx.pool()->ParallelFor(parents.size(), 1, [&](size_t b, size_t e_) {
      for (size_t i = b; i < e_; ++i) {
        const int p = parents[i];
        for (int c : tree.children[p]) {
          SemijoinReduce(&(*atoms)[p], (*atoms)[c], ctx);
        }
      }
    });
  }
}

void SemijoinSweepTopDown(std::vector<PreparedAtom>* atoms,
                          const JoinTree& tree, const ExecContext& ctx) {
  if (ctx.pool() == nullptr) {
    for (int e : tree.TopDownOrder()) {
      if (ctx.cancel().cancelled()) return;
      for (int c : tree.children[e]) {
        SemijoinReduce(&(*atoms)[c], (*atoms)[e], ctx);
      }
    }
    return;
  }
  std::vector<std::vector<int>> levels = NodesByDepth(tree);
  for (const std::vector<int>& level : levels) {
    if (ctx.cancel().cancelled()) return;
    std::vector<int> parents;
    for (int e : level) {
      if (!tree.children[e].empty()) parents.push_back(e);
    }
    if (parents.empty()) continue;
    ctx.pool()->ParallelFor(parents.size(), 1, [&](size_t b, size_t e_) {
      for (size_t i = b; i < e_; ++i) {
        const int p = parents[i];
        for (int c : tree.children[p]) {
          SemijoinReduce(&(*atoms)[c], (*atoms)[p], ctx);
        }
      }
    });
  }
}

void FullReduceSweeps(std::vector<PreparedAtom>* atoms, const JoinTree& tree,
                      const ExecContext& ctx) {
  const size_t m = atoms->size();
  std::vector<ByteVec> alive(m);
  std::vector<size_t> count(m);
  for (size_t i = 0; i < m; ++i) {
    alive[i] = AllAlive((*atoms)[i]);
    count[i] = alive[i].size();
  }

  // Each semijoin of either sweep is a bitmap update; no relation is
  // touched until the single compaction at the end.
  auto reduce = [&](int t, int s) {
    count[t] = SemijoinMark((*atoms)[t], &alive[t], count[t], (*atoms)[s],
                            &alive[s], count[s], ctx);
  };

  bool tripped = false;
  if (ctx.pool() == nullptr) {
    for (int e : tree.BottomUpOrder()) {
      if ((tripped = ctx.cancel().cancelled())) break;
      const int p = tree.parent[e];
      if (p >= 0) reduce(p, e);
    }
    if (!tripped) {
      for (int e : tree.TopDownOrder()) {
        if ((tripped = ctx.cancel().cancelled())) break;
        for (int c : tree.children[e]) reduce(c, e);
      }
    }
  } else {
    // Level-synchronous, mirroring the materializing sweeps: parents of
    // one tree depth run concurrently (they update disjoint bitmaps).
    const std::vector<std::vector<int>> levels = NodesByDepth(tree);
    auto run_level = [&](const std::vector<int>& level, bool bottom_up) {
      std::vector<int> parents;
      for (int e : level) {
        if (!tree.children[e].empty()) parents.push_back(e);
      }
      if (parents.empty()) return;
      ctx.pool()->ParallelFor(parents.size(), 1, [&](size_t b, size_t e_) {
        for (size_t i = b; i < e_; ++i) {
          const int p = parents[i];
          for (int c : tree.children[p]) {
            bottom_up ? reduce(p, c) : reduce(c, p);
          }
        }
      });
    };
    for (size_t d = levels.size(); d-- > 0;) {
      if ((tripped = ctx.cancel().cancelled())) break;
      run_level(levels[d], /*bottom_up=*/true);
    }
    if (!tripped) {
      for (const std::vector<int>& level : levels) {
        if ((tripped = ctx.cancel().cancelled())) break;
        run_level(level, /*bottom_up=*/false);
      }
    }
  }

  // One compaction per atom (skipped when nothing died). On a cancel trip
  // this materializes the partial reduction, matching the materializing
  // sweeps' leave-partially-reduced contract.
  auto compact = [&](size_t i) {
    if (count[i] != alive[i].size()) {
      (*atoms)[i].rel.CompactRows(alive[i].data());
    }
  };
  if (ctx.pool() != nullptr && m > 1) {
    ctx.pool()->ParallelFor(m, 1, [&](size_t b, size_t e) {
      for (size_t i = b; i < e; ++i) compact(i);
    });
  } else {
    for (size_t i = 0; i < m; ++i) compact(i);
  }
}

}  // namespace fgq
