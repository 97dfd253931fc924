#include "wire.h"

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace servebench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void PinTo(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

std::vector<int> AllowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) out.push_back(c);
  }
  return out;
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      PinTo({cpu});
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) {
      }
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

std::string ServerProc::Spawn(const std::string& facts,
                              const std::vector<int>& cpus) {
  int in_pipe[2], out_pipe[2];
  if (pipe(in_pipe) != 0 || pipe(out_pipe) != 0) return "pipe failed";
  pid = fork();
  if (pid < 0) return "fork failed";
  if (pid == 0) {
    PinTo(cpus);
    dup2(in_pipe[0], 0);
    dup2(out_pipe[1], 1);
    close(in_pipe[0]);
    close(in_pipe[1]);
    close(out_pipe[0]);
    close(out_pipe[1]);
    execl("/proc/self/exe", "servebench", "serve", facts.c_str(),
          static_cast<char*>(nullptr));
    _exit(127);
  }
  close(in_pipe[0]);
  close(out_pipe[1]);
  to_child = in_pipe[1];
  from_child = out_pipe[0];
  // The child prints "port N" once it listens.
  std::string line;
  char c;
  while (read(from_child, &c, 1) == 1 && c != '\n') line += c;
  if (line.rfind("port ", 0) != 0) {
    Stop();
    return "server did not start: " + line;
  }
  port = static_cast<uint16_t>(std::stoi(line.substr(5)));
  return "";
}

std::string ServerProc::Stop() {
  if (pid < 0) return "";
  close(to_child);
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = read(from_child, buf, sizeof(buf))) > 0) out.append(buf, n);
  close(from_child);
  int status = 0;
  waitpid(pid, &status, 0);
  pid = -1;
  return out;
}

int64_t ServerProc::PeakRssKiB() const {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      int64_t kib = 0;
      in >> kib;
      return kib;
    }
    std::getline(in, key);
  }
  return 0;
}

int64_t ServerProc::CpuNs() const {
  // The scheduler's exact run time of every thread (the first field of
  // each task's schedstat, in ns); utime/stime in /proc/<pid>/stat are
  // tick samples.
  const std::string dir = "/proc/" + std::to_string(pid) + "/task";
  int64_t total = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) return 0;
  while (dirent* e = readdir(d)) {
    if (e->d_name[0] == '.') continue;
    std::ifstream in(dir + "/" + e->d_name + "/schedstat");
    int64_t ns = 0;
    if (in >> ns) total += ns;
  }
  closedir(d);
  return total;
}

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::string Call(int fd, const fgq::net::Request& req,
                 fgq::net::Response* resp) {
  std::string frame;
  fgq::net::EncodeRequest(req, &frame);
  for (size_t off = 0; off < frame.size();) {
    const ssize_t n = write(fd, frame.data() + off, frame.size() - off);
    if (n <= 0) return std::string("write: ") + std::strerror(errno);
    off += static_cast<size_t>(n);
  }
  fgq::net::FrameReader reader;
  std::vector<uint8_t> payload;
  std::vector<char> buf(1 << 16);
  const int64_t deadline = NowNs() + int64_t{60} * 1000000000;
  while (true) {
    const auto state = reader.Next(&payload);
    if (state == fgq::net::FrameReader::State::kError) {
      return reader.error().ToString();
    }
    if (state == fgq::net::FrameReader::State::kFrame) break;
    // Busy-polls, like the load loop, so the caller's CPU never sleeps.
    const ssize_t n = recv(fd, buf.data(), buf.size(), MSG_DONTWAIT);
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR)) {
      if (NowNs() > deadline) return "no response for 60 s";
      continue;
    }
    if (n <= 0) return "connection closed";
    reader.Feed(buf.data(), static_cast<size_t>(n));
  }
  fgq::Status st =
      fgq::net::DecodeResponse(payload.data(), payload.size(), req.verb, resp);
  return st.ok() ? "" : st.ToString();
}

}  // namespace servebench
