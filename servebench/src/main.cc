// servebench: the served-stack benchmark of fgq.
//
//   servebench drive --workload=NAME --seed=N --seconds=S --trace=0|1
//                    [--work-dir=DIR]
//       One run: generate the workload from the seed, start a server over
//       it, drive it over loopback, check every answer, print one JSON
//       result line (end-to-end metrics, or per-layer ones with --trace=1).
//   servebench selftest [--work-dir=DIR]
//       Shows that the checker rejects corrupted responses.
//   servebench serve FACTS
//       The server process `drive` starts: a one-shard fgq::net server over
//       a SnapshotStore loaded from FACTS. Prints "port N", serves until its
//       stdin closes, then prints the server's StatsDump.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>

#include "drive.h"
#include "fgq/db/loader.h"
#include "fgq/db/snapshot.h"
#include "fgq/net/server.h"

namespace {

int Serve(const std::string& facts) {
  fgq::Database db;
  fgq::Dictionary dict;
  const fgq::Status st = fgq::LoadFactsFromFile(facts, &db, &dict);
  if (!st.ok()) {
    std::fprintf(stderr, "servebench serve: %s\n", st.ToString().c_str());
    return 2;
  }
  fgq::SnapshotStore store(std::move(db));
  fgq::net::NetServerOptions opts;
  // One shard, so its two threads (event loop and worker) fit beside the
  // load generator on three CPUs.
  opts.num_shards = 1;
  auto server = fgq::net::NetServer::Start(&store, opts);
  if (!server.ok()) {
    std::fprintf(stderr, "servebench serve: %s\n",
                 server.status().ToString().c_str());
    return 2;
  }
  std::printf("port %u\n", static_cast<unsigned>((*server)->port()));
  std::fflush(stdout);
  char c;
  while (read(0, &c, 1) > 0) {
  }
  (*server)->Stop();
  std::fputs((*server)->StatsDump().c_str(), stdout);
  return 0;
}

bool Flag(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage: servebench drive --workload=NAME --seed=N "
               "--seconds=S --trace=0|1 [--work-dir=DIR]\n"
               "       servebench selftest [--work-dir=DIR]\n"
               "       servebench serve FACTS\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  if (cmd == "serve" && argc == 3) return Serve(argv[2]);
  servebench::DriveArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string v;
    if (Flag(arg, "workload", &v)) {
      args.workload = v;
    } else if (Flag(arg, "seed", &v)) {
      args.seed = std::stoull(v);
    } else if (Flag(arg, "seconds", &v)) {
      args.seconds = std::stod(v);
    } else if (Flag(arg, "trace", &v)) {
      args.trace = v == "1";
    } else if (Flag(arg, "work-dir", &v)) {
      args.work_dir = v;
    } else {
      return Usage();
    }
  }
  if (cmd == "drive") return servebench::Drive(args);
  if (cmd == "selftest") return servebench::SelfTest(args.work_dir);
  return Usage();
}
