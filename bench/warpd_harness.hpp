// warpd_harness: the one copy of what the warpd benches share.
//
// warpd_bench, warpd_load and warpd_cluster all drive warpd daemons and
// hold them to the same contract: every "ok" reply's queue-independent
// fields equal a run_serial reference bit for bit, and each daemon
// incarnation's replies replay through the single virtual DPM clock. This
// library holds the daemon control (spawn-self, reap, the SIGTERM/drain
// stop contract), the serial references, the wait-chain checker, the
// control-plane reader for the `stats`/`drain` ops, the FAIL-line gate and
// the percentile the JSON reports use. tests/warpd_harness_test.cpp pins
// the checkers.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <sys/types.h>

#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "warp/warp_system.hpp"

namespace warp::bench {

using serve::protocol::Request;
/// Pure-field reference entry per key_of(request).
using References = std::map<std::string, warpsys::MultiWarpEntry>;
/// (dpm_wait_seconds, dpm_seconds) per ok reply of one daemon incarnation.
using WaitChain = std::vector<std::pair<double, double>>;

// --- daemon control ---------------------------------------------------------

/// Everything a spawned daemon child is started with: the union of the
/// flags the warpd benches parse for their hidden daemon modes
/// (`warpd_load --daemon`, `warpd_cluster --node`). daemon_argv() emits
/// only the fields that differ from a default DaemonArgs.
struct DaemonArgs {
  std::string socket;                       // --socket SPEC (load daemon)
  std::string store_dir;                    // --store DIR ("" = no store)
  std::optional<std::uint64_t> fault_seed;  // --fault-seed S: transient_sweep
  unsigned shards = 2;                      // --shards N
  unsigned workers = 2;                     // --workers N (0 = host threads)
  std::size_t max_sessions = 0;             // --max-sessions N (0 = no cap)
  std::size_t max_queued = 0;               // --max-queued N (0 = no cap)
  unsigned id = 0;                          // --id N (cluster node)
  std::string members;                      // --members LIST (cluster node)
  std::uint64_t hb_ms = 100;                // --hb-ms N (cluster node)
};

/// `mode` (e.g. "--daemon") followed by the non-default flags of `args`.
std::vector<std::string> daemon_argv(const char* mode, const DaemonArgs& args);

/// Fork and execv this same binary with `args` (a daemon_argv()), then wait
/// until `endpoint` accepts a connection. Exits the driver if the child dies
/// during start-up or never becomes reachable.
pid_t spawn_self(std::vector<std::string> args, const std::string& endpoint);

struct ExitInfo {
  bool exited = false;  // WIFEXITED
  int exit_code = -1;
  bool signaled = false;  // WIFSIGNALED
  int signal = 0;

  bool clean() const { return exited && exit_code == 0; }  // the graceful exit
  bool killed_by(int sig) const { return signaled && signal == sig; }
};

/// Wait for `pid` and return how it ended.
ExitInfo reap(pid_t pid);

/// Make SIGTERM only set a flag (draining takes locks). Call before the
/// server starts: the driver may signal as soon as the socket accepts.
void trap_sigterm();

/// The daemon stop contract: poll every 50 ms until SIGTERM or a remote
/// "drain" op, then drain (in-flight sessions finish, the store-flush
/// barrier is probed) and return. The caller then exits 0.
void supervise(serve::SocketServer& server);

/// The warpd daemon main (`warpd_load --daemon`, `warpd_bench --serve`):
/// one SocketServer on `args.socket` with the given shards, workers, caps,
/// optional persistent store and optional transient fault schedule, run
/// under supervise(). Returns the process exit code.
int run_daemon(const DaemonArgs& args);

/// Parse the unsigned value of the flag at argv[i], advancing i. Exits with
/// a message on a missing, signed or non-numeric value.
std::uint64_t uint_flag(int argc, char** argv, int& i);

/// Client-side busy-retry policy: honour the reply's retry hint, capped at
/// kMaxRetrySleepMs, and give a session up after kMaxBusyRetries busies.
constexpr int kMaxBusyRetries = 200;
constexpr std::uint64_t kMaxRetrySleepMs = 250;

// --- serial references ------------------------------------------------------

/// Workload plus every kernel-relevant override: equal keys, equal pure
/// fields.
std::string key_of(const Request& request);

/// Everything an "ok" reply claims about a session except its queue
/// position (dpm_wait_seconds, which the wait-chain replay covers).
bool pure_fields_match(const warpsys::MultiWarpEntry& a, const warpsys::MultiWarpEntry& b);

/// run_serial over one request per distinct key. Exits if the serial engine
/// rejects any of them.
References make_references(const std::vector<Request>& requests);

// --- checker ----------------------------------------------------------------

/// Sort one incarnation's ok replies by wait and replay them through the
/// round-robin DpmVirtualClock, as the engine's sequencer does. `exact`
/// (every reply observed): each wait must equal the clock bit for bit.
/// Otherwise replies were lost, and a lost session only adds busy time, so
/// each wait must be at least the previous wait plus its dpm_s. Prints a
/// FAIL line tagged `label` on the first divergence.
bool verify_wait_chain(WaitChain chain, bool exact, const std::string& label);

// --- control plane ----------------------------------------------------------

/// One request/reply exchange on a fresh connection, bounded at 60 s. Exits
/// with a message if the daemon is unreachable or never answers.
std::string control_rpc(const std::string& endpoint, const std::string& line);

/// The `stats` op's `k=v` reply line.
struct StatsLine {
  std::map<std::string, std::uint64_t, std::less<>> values;
  static StatsLine parse(std::string_view line);  // skips non-k=v tokens
  std::uint64_t get(std::string_view key) const;  // 0 when absent
  std::uint64_t sum_prefix(std::string_view prefix) const;
};

StatsLine query_stats(const std::string& endpoint);

/// Send the "drain" op and check its "draining" ack; prints a FAIL line
/// tagged `label` when the ack is missing.
bool send_drain(const std::string& endpoint, const std::string& label);

// --- reporting --------------------------------------------------------------

/// A run's pass/fail record: every failed check prints one
/// "  FAIL <label>: <message>" line and fails the run.
struct Gate {
  std::string label;
  bool ok = true;

  /// Record `pass`; on failure print the printf-formatted message.
  bool operator()(bool pass, const char* fmt, ...) __attribute__((format(printf, 3, 4)));
  /// Record a check that printed its own FAIL line.
  bool operator()(bool pass) {
    ok = ok && pass;
    return pass;
  }
};

/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double percentile(std::vector<double> values, double p);

}  // namespace warp::bench
