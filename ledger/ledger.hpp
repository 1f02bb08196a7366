// Shared pieces of the ledger benchmark: arguments, the result report, the
// warpd daemon child, and the outside-in layer timers of the traced run.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "partition/artifact_store.hpp"
#include "warp/warp_system.hpp"

namespace ledger {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Span clocks of the traced run, in milliseconds. paper_flow times its
/// spans on the wall clock, like the closed loop they are compared with;
/// serve's in-process replay uses the calling thread's CPU time, because it
/// is compared with the daemon's CPU time per session, so host stalls and
/// steal inflate neither side.
using SpanClock = double (*)();
double wall_ms();
double thread_cpu_ms();

/// The paper's headline averages (Figures 6 and 7) that the two accuracy
/// metrics are measured against.
inline constexpr double kPaperSpeedup = 5.8;
inline constexpr double kPaperEnergyNorm = 0.43;

/// Seeds named for gain claims: tune on the first, confirm on the second.
inline constexpr std::uint64_t kTuningSeed = 1;
inline constexpr std::uint64_t kHeldOutSeed = 97;

/// Set-ups per benchmark run; setup_s is their median.
inline constexpr int kSetups = 5;

/// Daemon sizing: three session workers and two DPM shards keep at most three
/// threads busy, leaving one of the four cores to the load generator.
inline constexpr unsigned kDaemonWorkers = 3;
inline constexpr unsigned kDaemonShards = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = kTuningSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string run_dir;  // scratch directory for sockets and stores
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run prints: the facts line, the text attribution table and
/// the final result line.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> facts;  // key, JSON value
  std::vector<std::string> notes;                          // printed text lines

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void fact_num(const std::string& key, double value);
  void fact_str(const std::string& key, const std::string& value);
  void fact_bool(const std::string& key, bool value);
  void fail(std::uint64_t n = 1) {
    failed += n;
    if (n != 0) correct = false;
  }
};

Report run_paper_flow(const Args& args);
Report run_serve(const Args& args);
bool is_serve_workload(const std::string& name);

// --- warpd daemon child ------------------------------------------------------

/// Everything but the thread counts is warpd's default configuration, with
/// an artifact cache over a persistent store.
struct DaemonConfig {
  std::string socket;     // unix socket path
  std::string store_dir;  // persistent artifact store
};

/// Entry point of the hidden `--daemon` mode: one SocketServer that serves
/// until a "drain" op or SIGTERM, then drains and exits 0.
int daemon_main(int argc, char** argv);

/// CPU time and peak resident memory (VmHWM: the high-water mark of this
/// process image only, not of the process it was forked from) of a process.
struct Usage {
  double cpu_ms = 0.0;
  double peak_rss_mb = 0.0;
  bool clean_exit = false;
};

/// A warpd daemon child of this process. The child dies with its parent
/// (PR_SET_PDEATHSIG) and the destructor kills and reaps it, so no daemon
/// outlives the run on any path.
class Daemon {
 public:
  explicit Daemon(const DaemonConfig& config);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return config_.socket; }
  /// Ask for a graceful drain, wait for the exit and return the child's CPU
  /// time (wait4) and the peak RSS it reported as it exited.
  Usage drain();

 private:
  DaemonConfig config_;
  pid_t pid_ = -1;
};

/// The daemon's `stats` op, parsed into key -> value; nullopt on failure.
std::optional<std::map<std::string, double>> query_stats(const std::string& socket);

/// CPU time and peak RSS of this process so far.
Usage self_usage();

// --- outside-in layer timing (traced runs) -----------------------------------

/// Times every call into a persistent artifact store it wraps.
class TimedStore final : public warp::partition::ArtifactStore {
 public:
  explicit TimedStore(warp::partition::ArtifactStore& inner) : inner_(inner) {}

  bool put(const warp::partition::CacheKey& key, std::uint32_t type_tag,
           std::uint32_t type_version, const std::vector<std::uint8_t>& payload) override;
  std::optional<std::vector<std::uint8_t>> get(const warp::partition::CacheKey& key,
                                               std::uint32_t type_tag,
                                               std::uint32_t type_version) override;
  void quarantine_key(const warp::partition::CacheKey& key) override {
    inner_.quarantine_key(key);
  }

  std::atomic<std::uint64_t> gets{0};
  std::atomic<std::uint64_t> get_hits{0};
  std::atomic<std::uint64_t> puts{0};
  std::atomic<std::uint64_t> get_ns{0};
  std::atomic<std::uint64_t> put_ns{0};

 private:
  warp::partition::ArtifactStore& inner_;
};

/// Per-op sums of what the traced run measured at each layer boundary.
/// Every time is host milliseconds summed over `ops` ops.
struct LayerTotals {
  double ops = 0.0;
  double op_ms = 0.0;         // the traced op span itself
  double assemble_ms = 0.0;   // isa::assemble
  double build_ms = 0.0;      // session build incl. assembly (serve only)
  double profile_ms = 0.0;    // WarpSystem::run_software / profile_phase
  double sim_only_ms = 0.0;   // the same binary run unprofiled
  double partition_ms = 0.0;  // WarpSystem::warp / dpm_phase
  double warped_ms = 0.0;     // WarpSystem::run_warped / warped_phase
  double hwsim_ms = 0.0;      // replayed invocation x invocations
  double service_ms = 0.0;    // serve::run_serial per session (serve only)
  double instructions = 0.0;  // ISS instructions of the software run
  double invocations = 0.0;
  double packed_iters = 0.0;
  double scalar_iters = 0.0;
  double dpm_cycles = 0.0;
  double cache_lookups = 0.0;
  double cache_hits = 0.0;
  std::map<std::string, double> stage_ms;  // StageMetric::host_ns by stage
};

/// Replay the device's last captured invocation through KernelExecutor::run
/// on a copy of data memory and scale it by the run's invocation count.
void add_hwsim_replay(warp::warpsys::WarpSystem& system, LayerTotals& totals, SpanClock clock);

/// Append the stage metrics of a partition outcome.
void add_stages(const warp::warpsys::PartitionOutcome& outcome, LayerTotals& totals);

/// What the serve layer measured in a traced run (zero for paper_flow).
struct ServeLayer {
  double rtt_ms = 0.0;
  double wait_ms = 0.0;
  double coalesced_share = 0.0;
  double busy_share = 0.0;
  double max_queue_depth = 0.0;
  double late_ms = 0.0;
  double pipeline_share = 1.0;  // sessions that ran their own pipeline
};

struct StoreLayer {
  double gets = 0.0, puts = 0.0, get_hits = 0.0;
  double get_ms = 0.0, put_ms = 0.0;
};

/// Emit every per-layer metric, the self-time attribution table (notes) and
/// the tracing overhead. `untraced_op_ms` is the untraced per-op time the
/// self times must add up to; `untraced_cpu_ms`/`traced_cpu_ms` are the
/// cpu_ms_per_op of the untraced and traced phases.
void report_layers(const LayerTotals& totals, const StoreLayer& store, const ServeLayer& serve,
                   double untraced_op_ms, double untraced_cpu_ms, double traced_cpu_ms,
                   Report& report);

}  // namespace ledger
