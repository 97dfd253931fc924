#include "fgq/db/snapshot.h"

#include <algorithm>
#include <utility>

#include "fgq/trace/trace.h"

namespace fgq {

std::shared_ptr<const HashIndex> Snapshot::MaintainedIndex(
    const std::string& relation, const std::vector<size_t>& key_cols) const {
  for (const Maintained& m : indexes_) {
    if (m.relation == relation && m.key_cols == key_cols) return m.index;
  }
  return nullptr;
}

SnapshotStore::SnapshotStore(Database db) {
  // Snapshot relations are canonical sorted sets, which Apply keeps and
  // preparation relies on; a database built by hand is sorted once here.
  std::vector<std::string> unsorted;
  for (const auto& [name, rel] : db.relations()) {
    if (!rel->sorted()) unsorted.push_back(name);
  }
  for (const std::string& name : unsorted) {
    db.FindMutable(name).value()->SortDedup();
  }
  auto snap = std::make_shared<Snapshot>();
  snap->epoch_ = 1;
  for (const auto& [name, rel] : db.relations()) {
    snap->rel_epochs_[name] = 1;
  }
  snap->db_ = std::make_shared<const Database>(std::move(db));
  current_ = std::move(snap);
}

std::shared_ptr<const Snapshot> SnapshotStore::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  return current_;
}

Result<uint64_t> SnapshotStore::Apply(const MutationBatch& batch,
                                      TraceContext* trace) {
  TraceSpan span(trace, "db.apply", "db");
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Snapshot> cur = current_;

  // Validate the whole batch before touching anything: Apply is atomic.
  for (const RelationMutation& m : batch) {
    std::shared_ptr<const Relation> old = cur->db_->FindShared(m.relation);
    if (old == nullptr) {
      return Status::NotFound("mutation targets unknown relation '" +
                              m.relation + "'");
    }
    for (const Tuple& t : m.inserts) {
      if (t.size() != old->arity()) {
        return Status::InvalidArgument(
            "insert arity mismatch for relation '" + m.relation + "'");
      }
    }
    for (const Tuple& t : m.deletes) {
      if (t.size() != old->arity()) {
        return Status::InvalidArgument(
            "delete arity mismatch for relation '" + m.relation + "'");
      }
    }
  }

  // Shallow copy: shares every relation payload with the current
  // snapshot; only touched relations are replaced below.
  auto next_db = std::make_shared<Database>(*cur->db_);
  const uint64_t next_epoch = cur->epoch_ + 1;

  auto next = std::make_shared<Snapshot>();
  next->epoch_ = next_epoch;
  next->rel_epochs_ = cur->rel_epochs_;
  next->indexes_ = cur->indexes_;  // Untouched entries carry over shared.

  uint64_t ins_total = 0, del_total = 0, delta_built = 0, rebuilt = 0;
  for (const RelationMutation& m : batch) {
    std::shared_ptr<const Relation> old = next_db->FindShared(m.relation);
    const size_t n_old = old->NumTuples();

    // Ascending ids of the rows the batch deletes: one binary search
    // per listed tuple (relations are sorted sets, so at most one row).
    std::vector<uint32_t> deleted;
    for (const Tuple& t : m.deletes) {
      const size_t at = old->LowerBound(t.data());
      if (at < n_old && old->CompareRow(at, t.data()) == 0) {
        deleted.push_back(static_cast<uint32_t>(at));
      }
    }
    std::sort(deleted.begin(), deleted.end());
    deleted.erase(std::unique(deleted.begin(), deleted.end()), deleted.end());

    // The inserts as a sorted set, minus the rows that survive the
    // deletes anyway; each remaining row is placed before the old row
    // LowerBound finds for it.
    Relation inserted(m.relation, old->arity());
    for (const Tuple& t : m.inserts) inserted.AddRow(t.data());
    inserted.SortDedup();
    std::vector<uint8_t> absent(inserted.NumTuples(), 1);
    std::vector<uint32_t> insert_at;
    Tuple row(old->arity());
    for (size_t i = 0; i < inserted.NumTuples(); ++i) {
      inserted.CopyRow(i, row.data());
      const size_t at = old->LowerBound(row.data());
      if (at < n_old && old->CompareRow(at, row.data()) == 0 &&
          !std::binary_search(deleted.begin(), deleted.end(), at)) {
        absent[i] = 0;
      } else {
        insert_at.push_back(static_cast<uint32_t>(at));
      }
    }
    inserted.CompactRows(absent);
    Relation next_rel = old->MergeSorted(deleted, inserted, insert_at);
    ins_total += inserted.NumTuples();
    del_total += deleted.size();

    // HashIndex::DeltaBuild expects the survivors in order with the
    // inserts at the tail: true when no insert lands before the last
    // survivor (e.g. ascending keys); otherwise the index is rebuilt.
    size_t survivors_end = n_old;
    for (auto it = deleted.rbegin();
         it != deleted.rend() && *it + 1 == survivors_end; ++it) {
      --survivors_end;
    }
    const bool appended =
        insert_at.empty() || insert_at.front() >= survivors_end;

    next_db->PutRelation(std::move(next_rel));
    std::shared_ptr<const Relation> fresh = next_db->FindShared(m.relation);
    next->rel_epochs_[m.relation] = next_epoch;

    // Maintain every registered index over this relation: delta first,
    // full rebuild only when the delta cannot land on the base layout.
    HashIndex::Delta delta;
    delta.deleted_rows = std::move(deleted);
    delta.num_inserted = inserted.NumTuples();
    for (Snapshot::Maintained& mi : next->indexes_) {
      if (mi.relation != m.relation) continue;
      std::unique_ptr<HashIndex> updated =
          appended ? HashIndex::DeltaBuild(*mi.index, *mi.rel, *fresh, delta)
                   : nullptr;
      if (updated != nullptr) {
        ++delta_built;
        mi.index = std::shared_ptr<const HashIndex>(std::move(updated));
      } else {
        ++rebuilt;
        mi.index = std::make_shared<const HashIndex>(*fresh, mi.key_cols);
      }
      mi.rel = fresh;
    }
  }

  next->db_ = std::move(next_db);
  current_ = next;

  batches_applied_.fetch_add(1, std::memory_order_relaxed);
  rows_inserted_.fetch_add(ins_total, std::memory_order_relaxed);
  rows_deleted_.fetch_add(del_total, std::memory_order_relaxed);
  indexes_delta_built_.fetch_add(delta_built, std::memory_order_relaxed);
  indexes_rebuilt_.fetch_add(rebuilt, std::memory_order_relaxed);
  if (trace != nullptr) {
    TraceCounter(trace, "db.rows_inserted", ins_total);
    TraceCounter(trace, "db.rows_deleted", del_total);
    TraceCounter(trace, "db.indexes_delta_built", delta_built);
    TraceCounter(trace, "db.indexes_rebuilt", rebuilt);
    span.Arg("epoch", std::to_string(next_epoch));
  }
  return next_epoch;
}

Status SnapshotStore::MaintainIndex(const std::string& relation,
                                    std::vector<size_t> key_cols) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::shared_ptr<const Snapshot> cur = current_;
  if (cur->MaintainedIndex(relation, key_cols) != nullptr) {
    return Status::OK();
  }
  std::shared_ptr<const Relation> rel = cur->db_->FindShared(relation);
  if (rel == nullptr) {
    return Status::NotFound("cannot maintain index over unknown relation '" +
                            relation + "'");
  }
  for (size_t c : key_cols) {
    if (c >= rel->arity()) {
      return Status::InvalidArgument("index key column out of range for '" +
                                     relation + "'");
    }
  }
  // Republish the same epoch with the index attached: nothing a cached
  // plan depends on changed.
  auto next = std::make_shared<Snapshot>(*cur);
  Snapshot::Maintained mi;
  mi.relation = relation;
  mi.index = std::make_shared<const HashIndex>(*rel, key_cols);
  mi.key_cols = std::move(key_cols);
  mi.rel = std::move(rel);
  next->indexes_.push_back(std::move(mi));
  current_ = std::move(next);
  return Status::OK();
}

SnapshotStoreStats SnapshotStore::stats() const {
  SnapshotStoreStats s;
  s.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  s.rows_inserted = rows_inserted_.load(std::memory_order_relaxed);
  s.rows_deleted = rows_deleted_.load(std::memory_order_relaxed);
  s.indexes_delta_built = indexes_delta_built_.load(std::memory_order_relaxed);
  s.indexes_rebuilt = indexes_rebuilt_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace fgq
