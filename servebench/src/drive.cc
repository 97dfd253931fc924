#include "drive.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>

#include "layers.h"
#include "reference.h"
#include "wire.h"
#include "workload.h"

namespace servebench {

namespace {

using fgq::net::Request;
using fgq::net::Response;
using fgq::net::Verb;

constexpr int64_t kSecondNs = 1000000000;
/// A run with no response for this long is broken, not slow.
constexpr int64_t kStallNs = 60 * kSecondNs;
/// At most this many full kRows bodies are kept for the exact check.
constexpr size_t kMaxSamples = 4;
/// Unmeasured load before the measured phase.
constexpr double kWarmupSeconds = 1.0;
/// Writes of the idle write probe (read-only workloads).
constexpr size_t kProbeWrites = 2000;

/// Nearest-rank percentile of `v` (sorted in place); 0 when empty.
double Percentile(std::vector<int64_t>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  size_t rank = static_cast<size_t>(std::ceil(p * v->size()));
  rank = std::clamp<size_t>(rank, 1, v->size());
  return static_cast<double>((*v)[rank - 1]);
}

/// Figures of one load phase.
struct PhaseStats {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t completed = 0;
  std::vector<int64_t> read_ns;
  std::vector<int64_t> write_ns;
  uint64_t bytes = 0;          ///< Response bytes received, headers included.
  uint64_t frames = 0;         ///< Response frames received.
};

/// Everything the checks need, shared by the phases of one run.
struct RunState {
  const Workload* w = nullptr;
  uint64_t seed = 0;
  StateRef base;
  std::vector<WriteOp> pool;
  std::vector<StateRef> pool_states;  ///< Base plus pool row i.
  uint64_t e0 = 0;                    ///< Epoch of the loaded database.
  uint64_t writes_sent = 0;
  uint64_t next_id = 1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;
  std::string first_problem;
  Rng sample_rng{0};
  std::vector<bool> sampled_entry;
  struct Sample {
    int entry;
    int state;
    Response resp;
  };
  std::vector<Sample> samples;

  const StateRef& RefAt(uint64_t epoch, int* state) const {
    *state = -1;
    if (epoch > e0) *state = StateAfterWrite(pool, epoch - e0 - 1);
    return *state < 0 ? base : pool_states[*state];
  }
  void Wrong(const std::string& why) {
    ++wrong;
    if (first_problem.empty()) first_problem = why;
  }
  void Failed(const std::string& why) {
    ++failed;
    if (first_problem.empty()) first_problem = why;
  }
};

struct Conn {
  int fd = -1;
  size_t index = 0;
  fgq::net::FrameReader reader;
  std::string out;
  size_t out_off = 0;
  struct Sent {
    int entry;           ///< Mix index, or -1 for a write.
    uint64_t id;
    uint64_t write;      ///< Write index (writes only).
    uint64_t min_epoch;  ///< Writes this connection sent before it.
    int64_t sent_ns;
  };
  std::deque<Sent> inflight;
  std::vector<int> order;
  size_t pos = 0;
  uint64_t round = 0;
  bool stopping = false;
  uint64_t own_writes = 0;
};

std::vector<int> ConnRound(const RunState& run, const Conn& c) {
  std::vector<int> reads = RoundOrder(*run.w, run.seed, c.index, c.round);
  if (run.w->write_every == 0 || c.index != 0) return reads;
  // The writer connection: one write in every `write_every` requests.
  std::vector<int> out;
  for (int r : reads) {
    if (out.size() % run.w->write_every == run.w->write_every - 1) {
      out.push_back(-1);
    }
    out.push_back(r);
  }
  return out;
}

std::string Flush(Conn* c) {
  while (c->out_off < c->out.size()) {
    const ssize_t n = send(c->fd, c->out.data() + c->out_off,
                           c->out.size() - c->out_off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return "";
      if (errno == EINTR) continue;
      return std::string("send: ") + std::strerror(errno);
    }
    c->out_off += static_cast<size_t>(n);
  }
  c->out.clear();
  c->out_off = 0;
  return "";
}

/// Queues the connection's next request. False when it must wait: a write
/// goes out only after every earlier request of its connection has been
/// answered, so no read sent before it can pin the epoch it publishes and
/// the server does the same work on every run. Also false once the last
/// round is done and the phase is over.
bool Issue(RunState* run, Conn* c, int64_t stop_ns) {
  if (c->pos == c->order.size()) {
    if (NowNs() >= stop_ns) {
      c->stopping = true;
      return false;
    }
    ++c->round;
    c->order = ConnRound(*run, *c);
    c->pos = 0;
  }
  if (c->order[c->pos] < 0 && !c->inflight.empty()) return false;
  const int entry = c->order[c->pos++];
  Conn::Sent s{entry, run->next_id++, 0, run->e0 + c->own_writes, 0};
  Request req;
  if (entry < 0) {
    s.write = run->writes_sent++;
    ++c->own_writes;
    req = MakeWrite(WriteAt(run->pool, s.write), s.id);
  } else {
    req = MakeRequest(run->w->mix[entry], s.id);
  }
  fgq::net::EncodeRequest(req, &c->out);
  s.sent_ns = NowNs();
  c->inflight.push_back(s);
  ++run->attempted;
  return true;
}

/// Tops the connection up to its pipeline window.
void Refill(RunState* run, Conn* c, int64_t stop_ns) {
  while (!c->stopping && c->inflight.size() < run->w->window &&
         Issue(run, c, stop_ns)) {
  }
}

/// Judges one response; returns a fatal transport problem, else "".
std::string OnResponse(RunState* run, Conn* c, const std::vector<uint8_t>& p,
                       PhaseStats* stats) {
  const int64_t now = NowNs();
  const Conn::Sent s = c->inflight.front();
  c->inflight.pop_front();
  const Verb verb = s.entry < 0 ? Verb::kMutate : run->w->mix[s.entry].verb;
  Response resp;
  const fgq::Status st = fgq::net::DecodeResponse(p.data(), p.size(), verb, &resp);
  if (!st.ok()) return "undecodable response: " + st.ToString();
  if (resp.id != s.id) return "response out of order";
  if (!resp.ok()) {
    run->Failed("request failed: " + resp.text);
  } else if (s.entry < 0) {
    // One writer, one connection: epochs are published in send order.
    if (resp.epoch != run->e0 + s.write + 1) {
      run->Wrong("write " + std::to_string(s.write) + " published epoch " +
                 std::to_string(resp.epoch));
    }
  } else {
    const MixEntry& e = run->w->mix[s.entry];
    const std::string bad_epoch =
        CheckEpoch(resp.epoch, s.min_epoch, run->e0 + run->writes_sent);
    if (!bad_epoch.empty()) {
      run->Wrong(e.label + ": " + bad_epoch);
    } else {
      int state;
      const StateRef& ref = run->RefAt(resp.epoch, &state);
      const std::string why = CheckResponse(e, resp, ref);
      if (!why.empty()) run->Wrong(why);
      if (stats != nullptr && e.verb == Verb::kRows &&
          run->samples.size() < kMaxSamples &&
          (!run->sampled_entry[s.entry] || run->sample_rng.Below(16) == 0)) {
        run->sampled_entry[s.entry] = true;
        run->samples.push_back({s.entry, state, std::move(resp)});
      }
    }
  }
  if (stats != nullptr) {
    ++stats->completed;
    (s.entry < 0 ? stats->write_ns : stats->read_ns).push_back(now - s.sent_ns);
    stats->end_ns = now;
  }
  return "";
}

/// Closed-loop load on every connection until `seconds` have passed and
/// each connection has finished its round. Empty on success.
std::string RunPhase(RunState* run, std::vector<Conn>* conns, double seconds,
                     PhaseStats* stats) {
  const int64_t start = NowNs();
  const int64_t stop_ns = start + static_cast<int64_t>(seconds * kSecondNs);
  if (stats != nullptr) stats->start_ns = start;
  for (Conn& c : *conns) {
    c.stopping = false;
    ++c.round;
    c.order = ConnRound(*run, c);
    c.pos = 0;
    Refill(run, &c, stop_ns);
    const std::string err = Flush(&c);
    if (!err.empty()) return err;
  }
  std::vector<char> buf(1 << 20);
  std::vector<uint8_t> payload;
  std::vector<pollfd> fds(conns->size());
  int64_t last_progress = NowNs();
  while (true) {
    bool active = false;
    for (size_t i = 0; i < conns->size(); ++i) {
      Conn& c = (*conns)[i];
      fds[i] = {c.fd, 0, 0};
      if (c.inflight.empty()) continue;
      active = true;
      fds[i].events = POLLIN | (c.out.empty() ? 0 : POLLOUT);
    }
    if (!active) return "";
    // Busy-polls: the load generator keeps its CPU, so a response is
    // never delayed by waking it up.
    if (poll(fds.data(), fds.size(), 0) < 0 && errno != EINTR) {
      return std::string("poll: ") + std::strerror(errno);
    }
    if (NowNs() - last_progress > kStallNs) return "no response for 60 s";
    for (size_t i = 0; i < conns->size(); ++i) {
      Conn& c = (*conns)[i];
      if (fds[i].revents & POLLOUT) {
        const std::string err = Flush(&c);
        if (!err.empty()) return err;
      }
      if (!(fds[i].revents & (POLLIN | POLLERR | POLLHUP))) continue;
      const ssize_t n = recv(c.fd, buf.data(), buf.size(), 0);
      if (n < 0 && (errno == EAGAIN || errno == EINTR)) continue;
      if (n <= 0) return "server closed the connection";
      c.reader.Feed(buf.data(), static_cast<size_t>(n));
      if (stats != nullptr) stats->bytes += static_cast<uint64_t>(n);
      bool progress = false;
      while (true) {
        const auto state = c.reader.Next(&payload);
        if (state == fgq::net::FrameReader::State::kError) {
          return "framing error: " + c.reader.error().ToString();
        }
        if (state == fgq::net::FrameReader::State::kNeedMore) break;
        if (c.inflight.empty()) return "response without a request";
        const std::string err = OnResponse(run, &c, payload, stats);
        if (!err.empty()) return err;
        if (stats != nullptr) ++stats->frames;
        progress = true;
        Refill(run, &c, stop_ns);
      }
      if (progress) {
        last_progress = NowNs();
        const std::string err = Flush(&c);
        if (!err.empty()) return err;
      }
    }
  }
}

/// Starts a server over `facts` and sends every request of the mix once,
/// checking each answer. Fills the start-to-ready time.
std::string SetupOnce(RunState* run, const std::string& facts,
                      const std::vector<int>& cpus, ServerProc* srv,
                      double* seconds) {
  const int64_t t0 = NowNs();
  std::string err = srv->Spawn(facts, cpus);
  if (!err.empty()) return err;
  const int fd = Connect(srv->port);
  if (fd < 0) return "cannot connect to the server";
  for (size_t i = 0; i < run->w->mix.size() && err.empty(); ++i) {
    const MixEntry& e = run->w->mix[i];
    Response resp;
    err = Call(fd, MakeRequest(e, run->next_id++), &resp);
    if (!err.empty()) break;
    ++run->attempted;
    if (!resp.ok()) {
      run->Failed("warm-up " + e.label + ": " + resp.text);
      continue;
    }
    if (i == 0) run->e0 = resp.epoch;
    if (resp.epoch != run->e0) run->Wrong("warm-up epochs differ");
    const std::string why = CheckResponse(e, resp, run->base);
    if (!why.empty()) run->Wrong("warm-up " + why);
  }
  close(fd);
  *seconds = static_cast<double>(NowNs() - t0) / kSecondNs;
  return err;
}

/// Latencies of kProbeWrites one-row writes, one at a time, on a server
/// that serves nothing else. The read-only workloads send no write in
/// their measured phase, yet every end-to-end metric is reported on
/// every workload: this is their write_p50_ms. The writes follow the
/// churn write log (insert a pool row, delete it again) over the mix
/// relations, so each one copies a relation as a churn write does.
std::string WriteProbe(RunState* run, uint16_t port,
                       std::vector<int64_t>* lat) {
  const int fd = Connect(port);
  if (fd < 0) return "cannot connect to the server";
  std::string err;
  for (size_t i = 0; i < kProbeWrites && err.empty(); ++i) {
    const uint64_t write = run->writes_sent++;
    Response resp;
    const int64_t t0 = NowNs();
    err = Call(fd, MakeWrite(WriteAt(run->pool, write), run->next_id++),
               &resp);
    lat->push_back(NowNs() - t0);
    ++run->attempted;
    if (!err.empty()) break;
    if (!resp.ok()) {
      run->Failed("write probe: " + resp.text);
    } else if (resp.epoch != run->e0 + write + 1) {
      run->Wrong("probe write " + std::to_string(write) +
                 " published epoch " + std::to_string(resp.epoch));
    }
  }
  close(fd);
  return err;
}

void PrintResult(const RunState& run, const std::vector<Metric>& metrics) {
  const bool correct = run.wrong == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(run.attempted),
              static_cast<unsigned long long>(run.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int Fail(const std::string& why) {
  std::fprintf(stderr, "servebench: %s\n", why.c_str());
  return 1;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

}  // namespace


int Drive(const DriveArgs& args) {
  Workload w;
  if (!FindWorkload(args.workload, &w)) {
    return Fail("unknown workload '" + args.workload + "'");
  }
  RunState run;
  run.w = &w;
  run.seed = args.seed;
  run.sample_rng = Rng(args.seed + 99);
  run.sampled_entry.assign(w.mix.size(), false);

  // Inputs and the reference, all before any clock starts.
  const Db db = Generate(w, args.seed);
  const std::string facts = args.work_dir + "/" + w.name + "-" +
                            std::to_string(args.seed) + ".facts";
  if (!WriteFactFile(db, facts)) return Fail("cannot write " + facts);
  run.base = BuildStateRef(w, db);
  std::fprintf(stderr, "servebench: %s seed %llu: %zu tuples; answers",
               w.name.c_str(), static_cast<unsigned long long>(args.seed),
               db.TotalRows());
  for (const MixEntry& e : w.mix) {
    if (e.verb == Verb::kCount) continue;
    std::fprintf(stderr, " %s=%zu", e.label.c_str(),
                 run.base.set(e.kind).keys.size());
  }
  std::fprintf(stderr, "\n");
  run.pool = InsertPool(w, db, args.seed);
  if (w.write_every != 0) {
    for (const WriteOp& op : run.pool) {
      Db with = db;
      Rel& r = with.Get(op.relation);
      r.values.insert(r.values.end(), op.row.begin(), op.row.end());
      run.pool_states.push_back(BuildStateRef(w, with));
    }
  }

  // Fixed placement: the server's two threads (event loop and worker) on
  // two CPUs of their own and the load generator on a third, so that the
  // scheduler's placement cannot change between runs. The server's CPUs
  // never go idle (see IdleSpinners); the generator busy-polls its own.
  std::vector<int> server_cpus, client_cpus;
  const std::vector<int> cpus = AllowedCpus();
  if (cpus.size() >= 3) {
    server_cpus = {cpus[0], cpus[1]};
    client_cpus = {cpus[2]};
  } else if (cpus.size() == 2) {
    server_cpus = {cpus[0]};
    client_cpus = {cpus[1]};
  }
  PinTo(client_cpus);
  const IdleSpinners spinners(server_cpus);

  std::vector<double> setup_s;
  ServerProc srv;
  for (size_t i = 0; i < w.setups; ++i) {
    if (srv.pid >= 0) srv.Stop();
    double s = 0;
    const std::string err = SetupOnce(&run, facts, server_cpus, &srv, &s);
    if (!err.empty()) {
      srv.Stop();
      return Fail(err);
    }
    setup_s.push_back(s);
  }

  std::vector<Conn> conns(w.conns);
  for (size_t i = 0; i < conns.size(); ++i) {
    conns[i].index = i;
    conns[i].fd = Connect(srv.port);
    if (conns[i].fd < 0) {
      srv.Stop();
      return Fail("cannot connect to the server");
    }
    fcntl(conns[i].fd, F_SETFL, fcntl(conns[i].fd, F_GETFL) | O_NONBLOCK);
  }
  std::string err = RunPhase(&run, &conns, kWarmupSeconds, nullptr);
  PhaseStats stats;
  int64_t cpu_ns = 0, rss_kib = 0;
  if (err.empty()) {
    const int64_t cpu0 = srv.CpuNs();
    err = RunPhase(&run, &conns, args.seconds, &stats);
    cpu_ns = srv.CpuNs() - cpu0;
    rss_kib = srv.PeakRssKiB();
  }
  for (Conn& c : conns) close(c.fd);
  if (err.empty() && w.write_every == 0) {
    err = WriteProbe(&run, srv.port, &stats.write_ns);
  }
  const std::string dump = srv.Stop();
  if (!err.empty()) return Fail(err);

  for (const RunState::Sample& s : run.samples) {
    const StateRef& ref = s.state < 0 ? run.base : run.pool_states[s.state];
    const std::string why =
        CheckExact(s.resp, ref.set(w.mix[s.entry].kind));
    if (!why.empty()) run.Wrong(w.mix[s.entry].label + ": " + why);
  }
  {
    // A human-readable summary on stderr; the result line stays last on
    // stdout.
    std::vector<int64_t> lat = stats.read_ns;
    std::fprintf(stderr,
                 "servebench: %s seed %llu: %llu requests in %.3f s; read "
                 "latency ms p50 %.3f p90 %.3f p99 %.3f p99.9 %.3f max %.3f\n",
                 w.name.c_str(), static_cast<unsigned long long>(args.seed),
                 static_cast<unsigned long long>(stats.completed),
                 (stats.end_ns - stats.start_ns) / 1e9,
                 Percentile(&lat, 0.5) / 1e6, Percentile(&lat, 0.9) / 1e6,
                 Percentile(&lat, 0.99) / 1e6, Percentile(&lat, 0.999) / 1e6,
                 Percentile(&lat, 1.0) / 1e6);
  }
  if (!run.first_problem.empty()) {
    std::fprintf(stderr, "servebench: %s\n", run.first_problem.c_str());
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    ServedCounters served;
    served.responses = stats.frames;
    served.cpu_ns = cpu_ns;
    served.bytes = stats.bytes;
    served.stats_dump = dump;
    metrics = LayerMetrics(w, db, facts, run.pool, served);
  } else {
    const double elapsed =
        static_cast<double>(stats.end_ns - stats.start_ns) / kSecondNs;
    metrics = {
        {"setup_s", "s", Median(setup_s)},
        {"throughput_rps", "req/s", stats.completed / elapsed},
        {"read_p50_ms", "ms", Percentile(&stats.read_ns, 0.50) / 1e6},
        {"write_p50_ms", "ms", Percentile(&stats.write_ns, 0.50) / 1e6},
        {"peak_rss_mb", "MiB", rss_kib / 1024.0},
    };
  }
  unlink(facts.c_str());
  PrintResult(run, metrics);
  return 0;
}

}  // namespace servebench
