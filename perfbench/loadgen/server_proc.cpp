// she_server as a child process, and the text scraping of its answers.
#include <arpa/inet.h>
#include <fcntl.h>
#include <sched.h>
#include <netinet/in.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

cpu_set_t g_all_cpus;
cpu_set_t g_server_cpus;

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Reap `pid` if it has exited within `timeout_ms`; true when reaped.
bool reap_within(pid_t pid, int timeout_ms) {
  const std::int64_t deadline = now_ns() + std::int64_t{timeout_ms} * 1'000'000;
  for (;;) {
    int status = 0;
    const pid_t got = waitpid(pid, &status, WNOHANG);
    if (got == pid || (got < 0 && errno == ECHILD)) return true;
    if (now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

}  // namespace

void split_cpus() {
  CPU_ZERO(&g_all_cpus);
  sched_getaffinity(0, sizeof g_all_cpus, &g_all_cpus);
  g_server_cpus = g_all_cpus;
  if (CPU_COUNT(&g_all_cpus) < 2) return;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &g_all_cpus)) last = c;
  CPU_CLR(last, &g_server_cpus);
  cpu_set_t mine;
  CPU_ZERO(&mine);
  CPU_SET(last, &mine);
  sched_setaffinity(0, sizeof mine, &mine);
}

void join_cpus() { sched_setaffinity(0, sizeof g_all_cpus, &g_all_cpus); }

ServerProc::ServerProc(const std::string& exe,
                       const std::vector<std::string>& args,
                       const std::string& log_path)
    : log_path_(log_path) {
  std::vector<std::string> argv_s{exe};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (auto& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  cpu_set_t mine;
  CPU_ZERO(&mine);
  sched_getaffinity(0, sizeof mine, &mine);
  sched_setaffinity(0, sizeof g_server_cpus, &g_server_cpus);  // inherited
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  posix_spawn_file_actions_addclose(&fa, 0);
  const int rc = posix_spawn(&pid_, exe.c_str(), &fa, nullptr, argv.data(),
                             environ);
  posix_spawn_file_actions_destroy(&fa);
  sched_setaffinity(0, sizeof mine, &mine);
  if (rc != 0) {
    throw std::runtime_error("cannot spawn " + exe + ": " + std::strerror(rc));
  }
  // The server prints "she_server listening proto=P http=H ..." once bound.
  const std::int64_t deadline = now_ns() + 30'000'000'000LL;
  for (;;) {
    const std::string log = read_file(log_path_);
    const auto at = log.find("listening proto=");
    if (at != std::string::npos && log.find('\n', at) != std::string::npos) {
      unsigned p = 0;
      unsigned h = 0;
      if (std::sscanf(log.c_str() + at, "listening proto=%u http=%u", &p, &h) ==
          2) {
        port_ = static_cast<std::uint16_t>(p);
        http_port_ = static_cast<std::uint16_t>(h);
        return;
      }
    }
    int status = 0;
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("she_server exited during start-up: " + log);
    }
    if (now_ns() > deadline) {
      stop();
      throw std::runtime_error("she_server did not report its ports: " + log);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
}

ServerProc::~ServerProc() { stop(); }

void ServerProc::stop() {
  if (pid_ <= 0) return;
  // SIGTERM runs the server's clean shutdown (drain + final checkpoints).
  kill(pid_, SIGTERM);
  if (!reap_within(pid_, 30'000)) {
    kill(pid_, SIGKILL);
    reap_within(pid_, 30'000);
  }
  pid_ = -1;
}

double ServerProc::vm_hwm_mib() const {
  const std::string status = read_file("/proc/" + std::to_string(pid_) + "/status");
  const auto at = status.find("VmHWM:");
  if (at == std::string::npos) throw std::runtime_error("no VmHWM for she_server");
  return std::strtod(status.c_str() + at + 6, nullptr) / 1024.0;  // kB -> MiB
}

std::string ServerProc::http_get(const std::string& path) const {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(http_port_);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error("cannot reach the she_server HTTP listener");
  }
  const std::string req = "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  if (send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
      static_cast<ssize_t>(req.size())) {
    close(fd);
    throw std::runtime_error("HTTP request write failed");
  }
  std::string resp;
  char buf[65536];
  for (;;) {
    const ssize_t n = recv(fd, buf, sizeof buf, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    resp.append(buf, static_cast<std::size_t>(n));
  }
  close(fd);
  const auto body = resp.find("\r\n\r\n");
  return body == std::string::npos ? resp : resp.substr(body + 4);
}

double json_number(const std::string& json, const std::string& key) {
  const std::string pat = "\"" + key + "\":";
  const auto at = json.find(pat);
  if (at == std::string::npos) throw std::runtime_error("no '" + key + "' in " + json);
  return std::strtod(json.c_str() + at + pat.size(), nullptr);
}

double prom_sum(const std::string& text, const std::string& name) {
  double sum = 0;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(name, 0) != 0) continue;
    const char next = line.size() > name.size() ? line[name.size()] : '\0';
    if (next != ' ' && next != '{') continue;  // a longer metric name
    sum += std::strtod(line.c_str() + line.rfind(' ') + 1, nullptr);
  }
  return sum;
}

}  // namespace perfbench
