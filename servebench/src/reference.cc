#include "reference.h"

#include <algorithm>
#include <limits>
#include <unordered_map>
#include <unordered_set>

namespace servebench {

namespace {

using fgq::SemiringId;
using fgq::net::Verb;

constexpr uint64_t kMask21 = (uint64_t{1} << 21) - 1;

int64_t Unpacked(uint64_t key, int arity, int col) {
  return static_cast<int64_t>((key >> (21 * (arity - 1 - col))) & kMask21);
}

std::unordered_set<int64_t> Column(const Rel& r, int col) {
  std::unordered_set<int64_t> out;
  out.reserve(r.rows() * 2);
  for (size_t i = 0; i < r.rows(); ++i) out.insert(r.row(i)[col]);
  return out;
}

/// Row ids of `r` grouped by column `col`.
std::unordered_map<int64_t, std::vector<uint32_t>> GroupBy(const Rel& r,
                                                           int col) {
  std::unordered_map<int64_t, std::vector<uint32_t>> out;
  out.reserve(r.rows() * 2);
  for (size_t i = 0; i < r.rows(); ++i) {
    out[r.row(i)[col]].push_back(static_cast<uint32_t>(i));
  }
  return out;
}

AnswerSet Finish(int arity, std::vector<uint64_t> keys) {
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  AnswerSet s;
  s.arity = arity;
  for (uint64_t k : keys) s.hash_sum += RowHash(k);
  s.keys = std::move(keys);
  return s;
}

}  // namespace

uint64_t PackRow(const int64_t* row, int arity) {
  uint64_t k = 0;
  for (int i = 0; i < arity; ++i) {
    k = (k << 21) | (static_cast<uint64_t>(row[i]) & kMask21);
  }
  return k;
}

uint64_t RowHash(uint64_t key) {
  uint64_t z = key + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

bool AnswerSet::Contains(uint64_t key) const {
  return std::binary_search(keys.begin(), keys.end(), key);
}

AnswerSet Evaluate(Kind kind, const Db& db) {
  const Rel& e1 = db.Get("E1");
  std::vector<uint64_t> out;
  switch (kind) {
    case Kind::kFcLookup:
    case Kind::kFcPair: {
      const auto b = Column(db.Get("B"), 0);
      for (size_t i = 0; i < e1.rows(); ++i) {
        const int64_t* t = e1.row(i);
        if (!b.count(t[0])) continue;
        out.push_back(kind == Kind::kFcLookup ? PackRow(t, 1) : PackRow(t, 2));
      }
      break;
    }
    case Kind::kFigure1: {
      // Q(x1, x2, x3) :- R(x1, x2), S(x2, x3, y3), R2(x1, y1),
      //                  T(y3, y4, y5), S2(x2, y2).
      const auto r2 = Column(db.Get("R2"), 0);
      const auto t = Column(db.Get("T"), 0);
      const auto s2 = Column(db.Get("S2"), 0);
      const Rel& s = db.Get("S");
      const auto s_by_x2 = GroupBy(s, 0);
      const Rel& r = db.Get("R");
      for (size_t i = 0; i < r.rows(); ++i) {
        const int64_t x1 = r.row(i)[0], x2 = r.row(i)[1];
        if (!r2.count(x1) || !s2.count(x2)) continue;
        auto it = s_by_x2.find(x2);
        if (it == s_by_x2.end()) continue;
        for (uint32_t j : it->second) {
          const int64_t* st = s.row(j);
          if (!t.count(st[2])) continue;
          const int64_t row[3] = {x1, x2, st[1]};
          out.push_back(PackRow(row, 3));
        }
      }
      break;
    }
    case Kind::kPath2:
    case Kind::kBoolean: {
      const Rel& e2 = db.Get("E2");
      const auto e2_by_y = GroupBy(e2, 0);
      const auto b = Column(db.Get("B"), 0);
      for (size_t i = 0; i < e1.rows(); ++i) {
        auto it = e2_by_y.find(e1.row(i)[1]);
        if (it == e2_by_y.end()) continue;
        for (uint32_t j : it->second) {
          const int64_t z = e2.row(j)[1];
          if (kind == Kind::kBoolean) {
            if (b.count(z)) return Finish(0, {0});
            continue;
          }
          const int64_t row[2] = {e1.row(i)[0], z};
          out.push_back(PackRow(row, 2));
        }
      }
      break;
    }
    case Kind::kEdges:
      for (size_t i = 0; i < e1.rows(); ++i) out.push_back(PackRow(e1.row(i), 2));
      break;
    case Kind::kDiseq: {
      const auto b = Column(db.Get("B"), 0);
      for (size_t i = 0; i < e1.rows(); ++i) {
        const int64_t* t = e1.row(i);
        if (b.count(t[1]) && t[0] != t[1]) out.push_back(PackRow(t, 2));
      }
      break;
    }
  }
  return Finish(KindArity(kind), std::move(out));
}

std::string Fold(const AnswerSet& set, SemiringId id) {
  switch (id) {
    case SemiringId::kCounting:
      return std::to_string(set.keys.size());
    case SemiringId::kBoolean:
      return set.keys.empty() ? "false" : "true";
    default:
      break;
  }
  // The ordered instances weigh an answer by its head values: min-plus
  // and top-k by their sum, max-min by their minimum.
  std::vector<int64_t> totals;
  int64_t best_min = std::numeric_limits<int64_t>::min();
  for (uint64_t k : set.keys) {
    int64_t sum = 0, lo = std::numeric_limits<int64_t>::max();
    for (int c = 0; c < set.arity; ++c) {
      const int64_t v = Unpacked(k, set.arity, c);
      sum += v;
      lo = std::min(lo, v);
    }
    totals.push_back(sum);
    best_min = std::max(best_min, lo);
  }
  std::sort(totals.begin(), totals.end());
  totals.erase(std::unique(totals.begin(), totals.end()), totals.end());
  if (id == SemiringId::kMinPlus) {
    return totals.empty() ? "inf" : std::to_string(totals.front());
  }
  if (id == SemiringId::kMaxMin) {
    return set.keys.empty() ? "-inf" : std::to_string(best_min);
  }
  std::string out = "[";
  for (size_t i = 0; i < totals.size() && i < 4; ++i) {
    if (i != 0) out += ',';
    out += std::to_string(totals[i]);
  }
  return out + "]";
}

StateRef BuildStateRef(const Workload& w, const Db& db) {
  StateRef ref;
  ref.sets.resize(kNumKinds);
  std::vector<bool> done(kNumKinds, false);
  for (const MixEntry& e : w.mix) {
    const int k = static_cast<int>(e.kind);
    if (!done[k]) ref.sets[k] = Evaluate(e.kind, db);
    done[k] = true;
    if (e.verb == Verb::kCount) {
      ref.folds[{k, static_cast<int>(e.semiring)}] =
          Fold(ref.sets[k], e.semiring);
    }
  }
  return ref;
}

std::string CheckResponse(const MixEntry& e, const fgq::net::Response& resp,
                          const StateRef& ref) {
  if (!resp.ok()) return e.label + ": error status: " + resp.text;
  const AnswerSet& set = ref.set(e.kind);
  if (e.verb == Verb::kCount) {
    const auto& want = ref.folds.at({static_cast<int>(e.kind),
                                     static_cast<int>(e.semiring)});
    if (resp.count != want) {
      return e.label + ": aggregate " + resp.count + ", want " + want;
    }
    return "";
  }
  if (resp.arity != static_cast<uint32_t>(set.arity)) {
    return e.label + ": arity " + std::to_string(resp.arity);
  }
  if (resp.values.size() != resp.nrows * resp.arity) {
    return e.label + ": body holds " + std::to_string(resp.values.size()) +
           " values for " + std::to_string(resp.nrows) + " rows";
  }
  const uint64_t want_rows =
      e.verb == Verb::kEnumerateLimit && e.limit != 0
          ? std::min<uint64_t>(e.limit, set.keys.size())
          : set.keys.size();
  if (resp.nrows != want_rows) {
    return e.label + ": " + std::to_string(resp.nrows) + " rows, want " +
           std::to_string(want_rows);
  }
  if (e.verb == Verb::kRows) {
    uint64_t sum = 0;
    for (uint64_t i = 0; i < resp.nrows; ++i) {
      sum += RowHash(PackRow(resp.values.data() + i * set.arity, set.arity));
    }
    if (sum != set.hash_sum) return e.label + ": rows differ from reference";
    return "";
  }
  std::vector<uint64_t> keys;
  keys.reserve(resp.nrows);
  for (uint64_t i = 0; i < resp.nrows; ++i) {
    const uint64_t k = PackRow(resp.values.data() + i * set.arity, set.arity);
    if (!set.Contains(k)) return e.label + ": row not in reference";
    keys.push_back(k);
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return e.label + ": duplicate row";
  }
  return "";
}

std::string CheckEpoch(uint64_t epoch, uint64_t min_epoch,
                       uint64_t max_published) {
  if (epoch < min_epoch) return "read at stale epoch " + std::to_string(epoch);
  if (epoch > max_published) {
    return "read at unpublished epoch " + std::to_string(epoch);
  }
  return "";
}

std::string CheckExact(const fgq::net::Response& resp, const AnswerSet& set) {
  std::vector<uint64_t> keys;
  keys.reserve(resp.nrows);
  for (uint64_t i = 0; i < resp.nrows; ++i) {
    keys.push_back(PackRow(resp.values.data() + i * set.arity, set.arity));
  }
  std::sort(keys.begin(), keys.end());
  if (std::adjacent_find(keys.begin(), keys.end()) != keys.end()) {
    return "duplicate row in full answer";
  }
  if (keys != set.keys) return "full answer differs from reference";
  return "";
}

}  // namespace servebench
