// Single- and multi-processor warp processing systems (Figures 2 and 4).
//
// WarpSystem wires up the whole platform of Figure 2: a MicroBlaze core
// with instruction/data BRAMs, the non-intrusive profiler on the
// instruction-side bus, the WCLA on the OPB with the second data-BRAM port,
// and the DPM. Its lifecycle mirrors the paper's experimental method:
//
//   run_software()  — execute the binary, profiling as it runs; gives the
//                     software-only baseline (time, instruction mix);
//   warp()          — DPM partitions the hottest suitable loop, configures
//                     the WCLA and patches the binary;
//   run_warped()    — re-run the (patched) application: the kernel now
//                     executes on the WCLA while the core idles.
//
// MultiWarpSystem (Figure 4) shares one DPM across N processors round-robin:
// each processor is profiled and warped in turn, so processor i waits for
// i-1 partitioning jobs before its own hardware comes online.
//
// run_multiprocessor simulates that N-processor system, either in the
// single-threaded reference loop or in one threaded engine (worker threads
// for the simulations, the calling thread as the DPM). Either way the shared
// DPM is a single-server queue ordered by *virtual* time, so the reported
// waits, speedups and partitions are bit-identical across thread counts.
// See DpmQueuePolicy for the service order.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "energy/power_model.hpp"
#include "hwsim/wcla_device.hpp"
#include "profiler/profiler.hpp"
#include "sim/core.hpp"
#include "warp/dpm.hpp"

namespace warp::warpsys {

struct WarpSystemConfig {
  isa::CpuConfig cpu;
  profiler::ProfilerConfig profiler;
  DpmOptions dpm;
  /// Lane-block width of the WCLA simulator's packed engine (0 = auto).
  /// A host-simulation knob only — it never changes simulated results.
  hwsim::PackedOptions packed;
  std::size_t instr_mem_bytes = 1 << 16;
  std::size_t data_mem_bytes = 1 << 20;
  bool verify_hw = false;  // cross-check fabric vs. DFG on every HW write
  std::uint64_t max_instructions = 500'000'000;
};

struct RunStats {
  sim::CoreStats core;
  hwsim::WclaStats wcla;
  double seconds = 0.0;
  energy::EnergyBreakdown energy;
};

class WarpSystem {
 public:
  using DataInit = std::function<void(sim::Memory&)>;

  WarpSystem(isa::Program program, DataInit init_data, WarpSystemConfig config);

  /// Software-only run with profiling. Resets data memory first.
  common::Result<RunStats> run_software();

  /// Invoke the DPM on the collected profile; patch + configure on success.
  /// `cache` (optional) is a shared partition::ArtifactCache consulted by
  /// the staged pipeline — a host-side optimization that never changes the
  /// outcome (see dpm.hpp). `fault` (optional) is a shared deterministic
  /// fault injector; an unrecoverable injected failure simply leaves the
  /// system unwarped (software fallback).
  const PartitionOutcome& warp(partition::ArtifactCache* cache = nullptr,
                               common::FaultInjector* fault = nullptr);

  /// Run the (possibly patched) binary. Resets data memory first.
  common::Result<RunStats> run_warped();

  const profiler::Profiler& loop_profiler() const { return profiler_; }
  const PartitionOutcome* outcome() const {
    return outcome_ ? &*outcome_ : nullptr;
  }
  sim::Memory& data_mem() { return data_mem_; }
  sim::Core& core() { return core_; }
  hwsim::WclaDevice& wcla() { return wcla_; }
  const isa::Program& program() const { return program_; }
  const WarpSystemConfig& config() const { return config_; }

 private:
  common::Result<RunStats> run_internal(bool profile);
  RunStats finish_stats() const;

  isa::Program program_;
  DataInit init_data_;
  WarpSystemConfig config_;
  sim::Memory instr_mem_;
  sim::Memory data_mem_;
  sim::Core core_;
  profiler::Profiler profiler_;
  hwsim::WclaDevice wcla_;
  std::optional<PartitionOutcome> outcome_;
};

/// One row of a multi-processor experiment.
struct MultiWarpEntry {
  std::string name;
  std::string detail;              // partition detail or first run error
  double sw_seconds = 0.0;
  double warped_seconds = 0.0;
  double speedup = 0.0;
  double dpm_seconds = 0.0;        // this processor's partitioning job
  double dpm_wait_seconds = 0.0;   // queueing until the shared DPM reached it
  bool warped = false;

  bool operator==(const MultiWarpEntry&) const = default;
};

/// How the shared single-server DPM orders queued partitioning jobs. Service
/// order is always defined by *virtual* time (the simulated clocks), never by
/// host completion order, so results are deterministic under any host
/// scheduling.
enum class DpmQueuePolicy {
  /// The paper's policy: strictly by processor index. Processor i's wait is
  /// the DPM busy time accumulated by jobs 0..i-1 (the serial baseline).
  kRoundRobin,
  /// First-come-first-served by virtual request time — the instant the
  /// profiled software run completes — with ties broken by processor index.
  /// The wait is the queueing delay between request and service start.
  /// Batch-arrival model: the order is known only once every processor has
  /// filed its request (that is what makes it deterministic); sorting by
  /// request time keeps the waits those of a work-conserving FIFO.
  kFifo,
  /// Served by descending MultiWarpOptions::priorities entry (missing
  /// entries are 0), ties broken by processor index. Waits and batch
  /// arrival as in kFifo, so a low-priority job's wait can include DPM idle
  /// time spent before the higher-priority jobs were even requested.
  kPriority,
};

/// Virtual-time bookkeeping of a shared single-server DPM. Round-robin
/// reports the server's accumulated busy time (the serial baseline's
/// semantics, kept in nanoseconds to match it bit for bit); kFifo/kPriority
/// report the queueing delay between a job's virtual request and its service
/// start, since under those policies service order depends on request times.
/// Public so other engines over the same virtual DPM (serve::Warpd) share
/// this arithmetic exactly — bit-identity across engines depends on it.
struct DpmVirtualClock {
  DpmQueuePolicy policy = DpmQueuePolicy::kRoundRobin;
  double busy_ns = 0.0;      // kRoundRobin
  double now_seconds = 0.0;  // kFifo / kPriority
  double start_seconds = 0.0;

  /// Called at service start with the job's virtual request time; returns
  /// the wait to report.
  double start(double request_seconds);
  /// Called at service end with the job's modeled DPM time.
  void finish(double job_seconds);
};

/// The three phases every multi-system engine pushes a WarpSystem through.
/// Exceptions and run failures land in entry.detail, never escape — the
/// transparency contract (a failed phase leaves the system in software).
/// Shared by run_multiprocessor's engines and the warpd serving engine so
/// every entry field is computed by literally the same code.
///
/// profile_phase: profiled software run; fills the software fields. Returns
/// false (reason in entry.detail) if the system never reaches the DPM.
bool profile_phase(WarpSystem& system, MultiWarpEntry& entry);
/// dpm_phase: one DPM service — run the partitioning flow. Fills the job
/// time and detail; the caller accounts the wait. Returns whether hardware
/// came online. Caller must guarantee exclusive use of `system`; the cache
/// and fault injector lock internally.
bool dpm_phase(WarpSystem& system, MultiWarpEntry& entry,
               partition::ArtifactCache* cache, common::FaultInjector* fault);
/// warped_phase: re-run after the DPM released the system (warped if
/// partitioning succeeded, the software fallback otherwise).
void warped_phase(WarpSystem& system, MultiWarpEntry& entry, bool partitioned);

struct MultiWarpOptions {
  /// Worker thread count; 0 means std::thread::hardware_concurrency(),
  /// always clamped to the number of systems. One thread means the
  /// single-threaded reference loop. Results are identical for any count.
  unsigned threads = 0;
  DpmQueuePolicy policy = DpmQueuePolicy::kRoundRobin;
  /// Per-processor priorities for DpmQueuePolicy::kPriority (higher first).
  std::vector<int> priorities;
  /// Shared content-addressed artifact cache consulted by every DPM job
  /// (partition/cache.hpp). With N replicated kernels the partitioning
  /// stages compute once per *unique* kernel; every simulated number stays
  /// bit-identical to a cache-less run under any thread count and policy.
  /// Not owned; may be null (no caching).
  partition::ArtifactCache* cache = nullptr;
  /// Shared deterministic fault injector threaded through every DPM job's
  /// pipeline stages (common/fault_injector.hpp). Transient schedules are
  /// absorbed by stage retries (bit-identical entries, host-only slowdown);
  /// persistent ones leave systems unwarped. Not owned; may be null.
  common::FaultInjector* fault = nullptr;
};

/// Run N workloads through one shared DPM (Figure 4). Each system is
/// profiled, partitioned by the shared DPM in the policy's virtual-time
/// order, and re-run warped. The two-argument form is the paper's
/// round-robin experiment with the default thread count.
std::vector<MultiWarpEntry> run_multiprocessor(
    std::vector<std::unique_ptr<WarpSystem>>& systems,
    const std::vector<std::string>& names,
    const MultiWarpOptions& options);
std::vector<MultiWarpEntry> run_multiprocessor(
    std::vector<std::unique_ptr<WarpSystem>>& systems,
    const std::vector<std::string>& names);

}  // namespace warp::warpsys
