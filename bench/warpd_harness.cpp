#include "warpd_harness.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#include <sys/wait.h>
#include <unistd.h>

#include "common/fault_injector.hpp"
#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "partition/cache.hpp"
#include "partition/disk_store.hpp"
#include "serve/warpd.hpp"

namespace warp::bench {

namespace {
volatile std::sig_atomic_t g_sigterm = 0;
void on_sigterm(int) { g_sigterm = 1; }
}  // namespace

std::vector<std::string> daemon_argv(const char* mode, const DaemonArgs& args) {
  const DaemonArgs d;
  std::vector<std::string> argv = {"/proc/self/exe", mode};
  const auto add = [&](const char* flag, const std::string& value, bool is_default) {
    if (is_default) return;
    argv.push_back(flag);
    argv.push_back(value);
  };
  add("--socket", args.socket, args.socket.empty());
  add("--id", std::to_string(args.id), args.id == d.id);
  add("--members", args.members, args.members.empty());
  add("--store", args.store_dir, args.store_dir.empty());
  add("--hb-ms", std::to_string(args.hb_ms), args.hb_ms == d.hb_ms);
  add("--shards", std::to_string(args.shards), args.shards == d.shards);
  add("--workers", std::to_string(args.workers), args.workers == d.workers);
  add("--fault-seed", args.fault_seed ? std::to_string(*args.fault_seed) : "",
      !args.fault_seed);
  add("--max-sessions", std::to_string(args.max_sessions), args.max_sessions == 0);
  add("--max-queued", std::to_string(args.max_queued), args.max_queued == 0);
  return argv;
}

pid_t spawn_self(std::vector<std::string> args, const std::string& endpoint) {
  std::vector<char*> argv;
  for (auto& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
    std::exit(1);
  }
  if (pid == 0) {
    ::execv("/proc/self/exe", argv.data());
    std::fprintf(stderr, "execv failed: %s\n", std::strerror(errno));
    ::_exit(127);
  }
  // Ready once the endpoint accepts: start() binds before the supervise
  // loop runs, so this is quick.
  for (int attempt = 0; attempt < 400; ++attempt) {
    int status = 0;
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      std::fprintf(stderr, "daemon for %s died during startup (status %d)\n",
                   endpoint.c_str(), status);
      std::exit(1);
    }
    serve::Client probe;
    if (probe.connect(endpoint)) return pid;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  std::fprintf(stderr, "daemon never became reachable on %s\n", endpoint.c_str());
  ::kill(pid, SIGKILL);
  std::exit(1);
}

ExitInfo reap(pid_t pid) {
  int status = 0;
  ExitInfo info;
  if (::waitpid(pid, &status, 0) != pid) return info;
  info.exited = WIFEXITED(status);
  if (info.exited) info.exit_code = WEXITSTATUS(status);
  info.signaled = WIFSIGNALED(status);
  if (info.signaled) info.signal = WTERMSIG(status);
  return info;
}

void trap_sigterm() { std::signal(SIGTERM, on_sigterm); }

void supervise(serve::SocketServer& server) {
  while (!g_sigterm && !server.drain_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.drain();
}

int run_daemon(const DaemonArgs& args) {
  trap_sigterm();
  std::optional<common::FaultInjector> fault;
  if (args.fault_seed) fault.emplace(common::FaultConfig::transient_sweep(*args.fault_seed));
  common::FaultInjector* injector = fault ? &*fault : nullptr;
  std::optional<partition::DiskArtifactStore> store;
  partition::ArtifactCache cache;
  if (!args.store_dir.empty()) {
    store.emplace(partition::DiskStoreOptions{.directory = args.store_dir, .fault = injector});
    cache.attach_store(&*store);
  }
  serve::SocketServerOptions options;
  options.path = args.socket;
  options.fault = injector;
  options.engine.shards = args.shards;
  options.engine.workers = args.workers;
  options.engine.base = experiments::default_options();
  options.engine.cache = &cache;
  options.engine.fault = injector;
  options.engine.admission.max_sessions = args.max_sessions;
  options.engine.admission.max_queued = args.max_queued;
  serve::SocketServer server(options);
  if (const auto status = server.start(); !status) {
    std::fprintf(stderr, "warpd daemon on %s: %s\n", args.socket.c_str(),
                 status.message().c_str());
    return 1;
  }
  supervise(server);
  return 0;
}

std::uint64_t uint_flag(int argc, char** argv, int& i) {
  const char* flag = argv[i];
  if (i + 1 >= argc) {
    std::fprintf(stderr, "%s expects a value\n", flag);
    std::exit(1);
  }
  const char* text = argv[++i];
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (text[0] == '-' || end == text || *end != '\0') {
    std::fprintf(stderr, "%s expects an unsigned integer, got '%s'\n", flag, text);
    std::exit(1);
  }
  return value;
}

std::string key_of(const Request& request) {
  const auto& o = request.overrides;
  return common::format("%s|%d|%d|%d", request.workload.c_str(),
                        o.packed_width ? static_cast<int>(*o.packed_width) : -1,
                        o.max_candidates ? static_cast<int>(*o.max_candidates) : -1,
                        o.csd_max_terms ? static_cast<int>(*o.csd_max_terms) : -1);
}

bool pure_fields_match(const warpsys::MultiWarpEntry& a, const warpsys::MultiWarpEntry& b) {
  return a.name == b.name && a.detail == b.detail && a.sw_seconds == b.sw_seconds &&
         a.warped_seconds == b.warped_seconds && a.speedup == b.speedup &&
         a.dpm_seconds == b.dpm_seconds && a.warped == b.warped;
}

References make_references(const std::vector<Request>& requests) {
  References references;
  std::vector<Request> distinct;
  for (const auto& request : requests) {
    if (references.emplace(key_of(request), warpsys::MultiWarpEntry{}).second) {
      Request bare = request;
      bare.id = distinct.size();
      bare.seq.reset();
      bare.deadline_ms.reset();
      distinct.push_back(bare);
    }
  }
  serve::WarpdOptions options;
  options.base = experiments::default_options();
  const auto outcomes = serve::run_serial(distinct, options);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    if (!outcomes[i].error.empty()) {
      std::fprintf(stderr, "serial reference rejected %s: %s\n",
                   distinct[i].workload.c_str(), outcomes[i].error.c_str());
      std::exit(1);
    }
    references[key_of(distinct[i])] = outcomes[i].entry;
  }
  return references;
}

bool verify_wait_chain(WaitChain chain, bool exact, const std::string& label) {
  std::sort(chain.begin(), chain.end());
  warpsys::DpmVirtualClock clock;  // kRoundRobin, as the engine's sequencer
  double lower = 0.0;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto [wait, dpm] = chain[i];
    if (exact) {
      const double want = clock.start(0.0);
      if (!Gate{label}(wait == want,
                  "wait chain diverges at reply %zu: wait=%.17g expected=%.17g", i, wait, want)) {
        return false;
      }
      clock.finish(dpm);
    } else {
      if (!Gate{label}(wait + 1e-9 >= lower,
                  "wait chain below lower bound at reply %zu: %.17g < %.17g", i, wait, lower)) {
        return false;
      }
      lower = wait + dpm;
    }
  }
  return true;
}

std::string control_rpc(const std::string& endpoint, const std::string& line) {
  serve::Client client;
  if (const auto status = client.connect(endpoint); !status) {
    std::fprintf(stderr, "control connect %s failed: %s\n", endpoint.c_str(),
                 status.message().c_str());
    std::exit(1);
  }
  if (const auto status = client.send_line(line); !status) {
    std::fprintf(stderr, "control send failed: %s\n", status.message().c_str());
    std::exit(1);
  }
  auto reply = client.read_line_for(60'000);
  if (!reply) {
    std::fprintf(stderr, "control '%s' on %s got no reply: %s\n", line.c_str(),
                 endpoint.c_str(), reply.message().c_str());
    std::exit(1);
  }
  return reply.value();
}

StatsLine StatsLine::parse(std::string_view line) {
  StatsLine stats;
  for (const auto field : common::split(line, " ")) {
    const auto eq = field.find('=');
    if (eq == std::string_view::npos) continue;
    stats.values[std::string(field.substr(0, eq))] =
        std::strtoull(std::string(field.substr(eq + 1)).c_str(), nullptr, 10);
  }
  return stats;
}

std::uint64_t StatsLine::get(std::string_view key) const {
  const auto it = values.find(key);
  return it == values.end() ? 0 : it->second;
}

std::uint64_t StatsLine::sum_prefix(std::string_view prefix) const {
  std::uint64_t total = 0;
  for (const auto& [key, value] : values) {
    if (common::starts_with(key, prefix)) total += value;
  }
  return total;
}

StatsLine query_stats(const std::string& endpoint) {
  return StatsLine::parse(control_rpc(endpoint, "stats"));
}

bool send_drain(const std::string& endpoint, const std::string& label) {
  return Gate{label}(control_rpc(endpoint, "drain") == "draining",
                     "%s did not acknowledge drain", endpoint.c_str());
}

bool Gate::operator()(bool pass, const char* fmt, ...) {
  if (pass) return true;
  ok = false;
  std::printf("  FAIL %s: ", label.c_str());
  va_list args;
  va_start(args, fmt);
  std::vprintf(fmt, args);
  va_end(args);
  std::printf("\n");
  return false;
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

}  // namespace warp::bench
