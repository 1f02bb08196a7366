// The warpd daemon child and its supervision from the ledger process.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "ledger.hpp"
#include "partition/cache.hpp"
#include "partition/disk_store.hpp"
#include "serve/server.hpp"

namespace ledger {
namespace {

volatile std::sig_atomic_t g_sigterm = 0;
void on_sigterm(int) { g_sigterm = 1; }

double timeval_ms(const timeval& tv) {
  return 1e3 * static_cast<double>(tv.tv_sec) + 1e-3 * static_cast<double>(tv.tv_usec);
}

// VmHWM of this process image in MB, from /proc/self/status; 0 if unreadable.
// ru_maxrss would not do: exec keeps the forking process's high-water mark.
double vmhwm_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (warp::common::starts_with(line, "VmHWM:")) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

// Where a daemon leaves its peak RSS for the ledger process as it exits.
std::string peak_file(const std::string& socket) { return socket + ".hwm"; }

}  // namespace

int daemon_main(int argc, char** argv) {
  DaemonConfig config;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--socket" && i + 1 < argc) {
      config.socket = argv[++i];
    } else if (arg == "--store" && i + 1 < argc) {
      config.store_dir = argv[++i];
    } else {
      std::fprintf(stderr, "ledger --daemon: unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (config.socket.empty() || config.store_dir.empty()) {
    std::fprintf(stderr, "ledger --daemon: --socket and --store are required\n");
    return 2;
  }
  std::signal(SIGTERM, on_sigterm);
  warp::partition::DiskArtifactStore store(
      warp::partition::DiskStoreOptions{.directory = config.store_dir});
  warp::partition::ArtifactCache cache;
  cache.attach_store(&store);
  warp::serve::SocketServerOptions options;
  options.path = config.socket;
  options.engine.shards = kDaemonShards;
  options.engine.workers = kDaemonWorkers;
  options.engine.base = warp::experiments::default_options();
  options.engine.cache = &cache;
  warp::serve::SocketServer server(options);
  if (const auto status = server.start(); !status) {
    std::fprintf(stderr, "ledger --daemon: %s\n", status.message().c_str());
    return 1;
  }
  while (!g_sigterm && !server.drain_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  server.drain();
  std::ofstream(peak_file(config.socket)) << warp::common::format("%.17g\n", vmhwm_mb());
  return 0;
}

Daemon::Daemon(const DaemonConfig& config) : config_(config) {
  std::vector<std::string> argv_store = {"/proc/self/exe", "--daemon", "--socket", config.socket,
                                         "--store", config.store_dir};
  std::vector<char*> argv;
  for (auto& arg : argv_store) argv.push_back(arg.data());
  argv.push_back(nullptr);

  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    ::execv("/proc/self/exe", argv.data());
    ::_exit(127);
  }
  // Ready once the socket accepts a connection.
  for (int attempt = 0; attempt < 2000; ++attempt) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon died during startup");
    }
    warp::serve::Client probe;
    if (probe.connect(config.socket)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  throw std::runtime_error("daemon never became reachable on " + config.socket);
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
}

Usage Daemon::drain() {
  Usage usage;
  if (pid_ <= 0) return usage;
  {
    warp::serve::Client client;
    if (client.connect(config_.socket) && client.send_line("drain")) {
      (void)client.read_line_for(10'000);
    } else {
      ::kill(pid_, SIGTERM);
    }
  }
  int status = 0;
  rusage ru{};
  if (::wait4(pid_, &status, 0, &ru) == pid_) {
    usage.cpu_ms = timeval_ms(ru.ru_utime) + timeval_ms(ru.ru_stime);
    std::ifstream peak(peak_file(config_.socket));
    const bool reported = static_cast<bool>(peak >> usage.peak_rss_mb);
    usage.clean_exit = WIFEXITED(status) && WEXITSTATUS(status) == 0 && reported;
  }
  pid_ = -1;
  return usage;
}

std::optional<std::map<std::string, double>> query_stats(const std::string& socket) {
  warp::serve::Client client;
  if (!client.connect(socket) || !client.send_line("stats")) return std::nullopt;
  auto line = client.read_line_for(10'000);
  if (!line || !warp::common::starts_with(line.value(), "stats ")) return std::nullopt;
  const std::string body = line.value().substr(6);
  std::map<std::string, double> values;
  for (const std::string_view field : warp::common::split(body, " ")) {
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) continue;
    values[std::string(field.substr(0, eq))] =
        std::strtod(std::string(field.substr(eq + 1)).c_str(), nullptr);
  }
  return values;
}

Usage self_usage() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  Usage usage;
  usage.cpu_ms = timeval_ms(ru.ru_utime) + timeval_ms(ru.ru_stime);
  usage.peak_rss_mb = vmhwm_mb();
  usage.clean_exit = true;
  return usage;
}

}  // namespace ledger
