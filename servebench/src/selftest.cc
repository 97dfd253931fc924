// Shows that the checker rejects wrong answers: real responses from a
// hot-read server must pass, and each corruption of them must fail.

#include <unistd.h>

#include <cstdio>
#include <functional>

#include "drive.h"
#include "reference.h"
#include "wire.h"
#include "workload.h"

namespace servebench {

namespace {

using fgq::net::Response;
using fgq::net::Verb;

struct Tally {
  int passed = 0;
  int failed = 0;
  void Expect(bool ok, const std::string& what) {
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
    (ok ? passed : failed)++;
  }
};

/// Rewrites one aggregate body into a wrong one of the same form.
std::string Perturb(const std::string& body) {
  if (body == "true") return "false";
  if (body == "false") return "true";
  if (body.front() == '[') {
    // Top-k: drop the last entry.
    const size_t cut = body.rfind(',');
    return cut == std::string::npos ? "[]" : body.substr(0, cut) + "]";
  }
  return std::to_string(std::stoll(body) + 1);  // Off by one.
}

void CorruptRows(const MixEntry& e, const Response& good, const StateRef& ref,
                 Tally* t) {
  const int a = static_cast<int>(good.arity);
  auto expect_reject = [&](const std::string& what,
                           const std::function<void(Response*)>& f) {
    Response bad = good;
    f(&bad);
    t->Expect(!CheckResponse(e, bad, ref).empty(), e.label + ": " + what);
  };
  if (good.nrows >= 1) {
    expect_reject("dropped row is rejected", [&](Response* r) {
      --r->nrows;
      r->values.resize(r->nrows * a);
    });
    expect_reject("foreign row is rejected", [&](Response* r) {
      for (int c = 0; c < a; ++c) r->values[c] = 1 << 20;
      if (a == 0) r->nrows = 2;
    });
  }
  if (good.nrows >= 2 && a > 0) {
    expect_reject("duplicated row is rejected", [&](Response* r) {
      std::copy(r->values.begin(), r->values.begin() + a,
                r->values.begin() + a);
    });
  }
  expect_reject("wrong arity is rejected", [&](Response* r) { ++r->arity; });
}

}  // namespace

int SelfTest(const std::string& work_dir) {
  Workload w;
  FindWorkload("hot-read", &w);
  const Db db = Generate(w, 1);
  const std::string facts = work_dir + "/selftest.facts";
  if (!WriteFactFile(db, facts)) return 1;
  const StateRef ref = BuildStateRef(w, db);
  ServerProc srv;
  const std::string err = srv.Spawn(facts);
  if (!err.empty()) {
    std::fprintf(stderr, "servebench: %s\n", err.c_str());
    return 1;
  }
  const int fd = Connect(srv.port);
  Tally t;
  uint64_t id = 1;
  for (const MixEntry& e : w.mix) {
    Response good;
    if (!Call(fd, MakeRequest(e, id++), &good).empty()) break;
    t.Expect(CheckResponse(e, good, ref).empty(),
             e.label + ": true response is accepted");
    if (e.verb == Verb::kCount) {
      Response bad = good;
      bad.count = Perturb(good.count);
      t.Expect(!CheckResponse(e, bad, ref).empty(),
               e.label + ": aggregate " + bad.count + " is rejected");
    } else {
      CorruptRows(e, good, ref, &t);
    }
  }
  close(fd);
  srv.Stop();
  unlink(facts.c_str());

  // Full kRows bodies (bulk-answers) are judged by size and row hash in
  // the loop and exactly on the sample; build one from the reference.
  MixEntry full{"path2-rows", Kind::kPath2, Verb::kRows, 0,
                fgq::SemiringId::kCounting, 1};
  const AnswerSet& set = ref.set(Kind::kPath2);
  Response rows;
  rows.arity = 2;
  rows.nrows = set.keys.size();
  for (uint64_t k : set.keys) {
    rows.values.push_back(static_cast<int64_t>(k >> 21));
    rows.values.push_back(static_cast<int64_t>(k & ((1 << 21) - 1)));
  }
  t.Expect(CheckResponse(full, rows, ref).empty() &&
               CheckExact(rows, set).empty(),
           "full rows: true body is accepted");
  CorruptRows(full, rows, ref, &t);
  Response dup = rows;
  dup.values[2] = dup.values[0];
  dup.values[3] = dup.values[1];
  t.Expect(!CheckExact(dup, set).empty(),
           "full rows: exact check rejects a duplicated row");

  t.Expect(!CheckEpoch(7, 5, 6).empty(), "epoch beyond the published one");
  t.Expect(!CheckEpoch(4, 5, 6).empty(), "epoch before the reader's write");
  t.Expect(CheckEpoch(5, 5, 6).empty(), "published epoch is accepted");

  std::printf("selftest: %d passed, %d failed\n", t.passed, t.failed);
  return t.failed == 0 && t.passed > 0 ? 0 : 1;
}

}  // namespace servebench
