#ifndef SERVEBENCH_WIRE_H_
#define SERVEBENCH_WIRE_H_

// The benchmark's side of the socket: a server child process, and
// connections that speak the fgq wire protocol through the library's
// codec (EncodeRequest / FrameReader / DecodeResponse).

#include <sys/types.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fgq/net/protocol.h"

namespace servebench {

int64_t NowNs();

/// A `servebench serve` child: a NetServer over a fact file. It serves
/// until its stdin closes, then stops and prints the server's StatsDump.
struct ServerProc {
  ServerProc() = default;
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;
  ~ServerProc() { Stop(); }

  pid_t pid = -1;
  int to_child = -1;    ///< Child's stdin; closing it stops the server.
  int from_child = -1;  ///< Child's stdout.
  uint16_t port = 0;

  /// Starts the child on `cpus` (all allowed CPUs when empty) and waits
  /// for its port line. Empty on success.
  std::string Spawn(const std::string& facts,
                    const std::vector<int>& cpus = {});
  /// Stops the child, waits for it, and returns what it printed after the
  /// port line (the StatsDump).
  std::string Stop();

  /// Resident-set high-water mark of the child, in KiB.
  int64_t PeakRssKiB() const;
  /// CPU time the child's threads have run so far, in ns.
  int64_t CpuNs() const;
};

/// Restricts the calling process (and the children it starts later) to
/// `cpus`; no-op when empty.
void PinTo(const std::vector<int>& cpus);
/// The CPUs this process may run on, in order.
std::vector<int> AllowedCpus();

/// Keeps `cpus` from going idle while it lives: one spinning thread per
/// CPU at the lowest priority (SCHED_IDLE), which gives the CPU up at once
/// to any other runnable thread. An idle virtual CPU halts, and waking it
/// waits on the host's scheduler: on a shared host that adds a delay to a
/// wake-up which changes from run to run.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// A blocking connection to 127.0.0.1:`port` with TCP_NODELAY, or -1.
int Connect(uint16_t port);

/// Sends `req` on `fd` and busy-waits (60 s at most) for its response.
std::string Call(int fd, const fgq::net::Request& req,
                 fgq::net::Response* resp);

}  // namespace servebench

#endif  // SERVEBENCH_WIRE_H_
