#include "warp/warp_system.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

namespace warp::warpsys {

WarpSystem::WarpSystem(isa::Program program, DataInit init_data, WarpSystemConfig config)
    : program_(std::move(program)),
      init_data_(std::move(init_data)),
      config_(config),
      instr_mem_(config.instr_mem_bytes),
      data_mem_(config.data_mem_bytes),
      core_(instr_mem_, data_mem_, config.cpu),
      profiler_(config.profiler),
      wcla_(data_mem_, config.cpu.clock_mhz) {
  wcla_.set_packed_options(config.packed);
  core_.add_device(&wcla_);
  core_.set_branch_hook([this](std::uint32_t pc, std::uint32_t target, bool taken) {
    profiler_.on_branch(pc, target, taken);
  });
  core_.load_program(program_);
}

common::Result<RunStats> WarpSystem::run_internal(bool profile) {
  if (init_data_) init_data_(data_mem_);
  if (profile) profiler_.reset();
  core_.reset();
  core_.clear_stats();
  wcla_.clear_stats();
  const sim::StopReason reason = core_.run(config_.max_instructions);
  if (reason == sim::StopReason::kError) {
    return common::Result<RunStats>::error(core_.error());
  }
  if (reason == sim::StopReason::kMaxInstructions) {
    return common::Result<RunStats>::error("instruction budget exhausted");
  }
  return finish_stats();
}

RunStats WarpSystem::finish_stats() const {
  RunStats stats;
  stats.core = core_.stats();
  stats.wcla = wcla_.stats();
  stats.seconds = stats.core.seconds(config_.cpu.clock_mhz);

  const double f_hz = config_.cpu.clock_mhz * 1e6;
  const double t_active = static_cast<double>(stats.core.active_cycles()) / f_hz;
  const double t_idle = static_cast<double>(stats.core.idle_cycles) / f_hz;
  const double t_hw = stats.wcla.busy_ns * 1e-9;
  const unsigned used_luts =
      outcome_ && outcome_->success ? static_cast<unsigned>(outcome_->luts) : 0;
  const bool uses_mac =
      outcome_ && outcome_->success && outcome_->kernel->mac_cycles_per_iter > 0;
  stats.energy = energy::microblaze_energy(t_active, t_idle, t_hw, used_luts, uses_mac);
  return stats;
}

common::Result<RunStats> WarpSystem::run_software() { return run_internal(true); }

const PartitionOutcome& WarpSystem::warp(partition::ArtifactCache* cache,
                                         common::FaultInjector* fault) {
  outcome_ = partition(program_.words, profiler_.candidates(),
                       hwsim::kWclaBase, config_.dpm, cache, fault);
  if (outcome_->success) {
    // Write the stub into free instruction memory and patch the loop header
    // (through the second port of the instruction BRAM, like the real DPM).
    instr_mem_.load_words(outcome_->stub_addr, outcome_->stub.words);
    instr_mem_.write32(outcome_->header_pc, outcome_->stub.patch_word);
    wcla_.configure(outcome_->kernel, outcome_->config);
    wcla_.set_verify(config_.verify_hw);
  }
  return *outcome_;
}

common::Result<RunStats> WarpSystem::run_warped() { return run_internal(false); }

double DpmVirtualClock::start(double request_seconds) {
  if (policy == DpmQueuePolicy::kRoundRobin) return busy_ns * 1e-9;
  start_seconds = std::max(now_seconds, request_seconds);
  return start_seconds - request_seconds;
}

void DpmVirtualClock::finish(double job_seconds) {
  if (policy == DpmQueuePolicy::kRoundRobin) {
    busy_ns += job_seconds * 1e9;
  } else {
    now_seconds = start_seconds + job_seconds;
  }
}

bool profile_phase(WarpSystem& system, MultiWarpEntry& entry) {
  try {
    auto sw = system.run_software();
    if (!sw) {
      entry.detail = "software run: " + sw.message();
      return false;
    }
    entry.sw_seconds = sw.value().seconds;
    return true;
  } catch (const std::exception& e) {
    entry.detail = std::string("software run: ") + e.what();
    return false;
  }
}

bool dpm_phase(WarpSystem& system, MultiWarpEntry& entry,
               partition::ArtifactCache* cache, common::FaultInjector* fault) {
  try {
    const PartitionOutcome& outcome = system.warp(cache, fault);
    entry.detail = outcome.detail;
    entry.dpm_seconds = outcome.dpm_seconds;
    return outcome.success;
  } catch (const std::exception& e) {
    entry.detail = std::string("partition: ") + e.what();
    return false;
  }
}

void warped_phase(WarpSystem& system, MultiWarpEntry& entry, bool partitioned) {
  if (!partitioned) {
    // The application keeps running in software.
    entry.warped_seconds = entry.sw_seconds;
    entry.speedup = 1.0;
    return;
  }
  try {
    auto warped = system.run_warped();
    if (!warped) {
      entry.detail = "warped run: " + warped.message();
      return;
    }
    entry.warped = true;
    entry.warped_seconds = warped.value().seconds;
    entry.speedup = entry.sw_seconds / entry.warped_seconds;
  } catch (const std::exception& e) {
    entry.detail = std::string("warped run: ") + e.what();
  }
}

namespace {

int priority_of(const MultiWarpOptions& options, std::size_t index) {
  return index < options.priorities.size() ? options.priorities[index] : 0;
}

// The shared DPM's job queue: the service order, and the rule for when the
// next job is known. Under round robin job i is known once systems 0..i have
// filed. Under FIFO and priority it is known only once all n have filed (the
// batch-arrival model): until then an unfiled system could still come first.
// Not thread-safe; the threaded engine calls it under its mutex.
class DpmQueue {
 public:
  DpmQueue(const MultiWarpOptions& options, std::size_t n)
      : options_(options), requests_(n), filed_(n, false) {}

  // System i finished its profiled run: `request_seconds` is its virtual
  // request time, or nullopt if it files no job.
  void file(std::size_t i, std::optional<double> request_seconds) {
    const std::size_t n = filed_.size();
    requests_[i] = request_seconds;
    filed_[i] = true;
    ++filed_count_;
    if (options_.policy == DpmQueuePolicy::kRoundRobin) {
      for (; known_ < n && filed_[known_]; ++known_) {
        if (requests_[known_]) order_.push_back(known_);
      }
      return;
    }
    if (filed_count_ < n) return;
    for (std::size_t j = 0; j < n; ++j) {
      if (requests_[j]) order_.push_back(j);
    }
    // A stable sort of an index-ordered list: ties go to the lower index.
    std::stable_sort(order_.begin(), order_.end(), [&](std::size_t a, std::size_t b) {
      if (options_.policy == DpmQueuePolicy::kFifo) return *requests_[a] < *requests_[b];
      return priority_of(options_, a) > priority_of(options_, b);
    });
  }

  // The next job to serve, if it is known yet.
  std::optional<std::size_t> next() {
    if (served_ == order_.size()) return std::nullopt;
    return order_[served_++];
  }

  // Every system has filed and every job has been handed out.
  bool drained() const { return filed_count_ == filed_.size() && served_ == order_.size(); }

  double request_seconds(std::size_t i) const { return *requests_[i]; }

 private:
  const MultiWarpOptions& options_;
  std::vector<std::optional<double>> requests_;
  std::vector<bool> filed_;
  std::size_t filed_count_ = 0;
  std::size_t known_ = 0;           // round robin: systems 0..known_-1 have filed
  std::vector<std::size_t> order_;  // known jobs, in service order
  std::size_t served_ = 0;
};

// The profiled run; its DPM request time, or nullopt if it files no job.
std::optional<double> profile_request(WarpSystem& system, MultiWarpEntry& entry) {
  if (!profile_phase(system, entry)) return std::nullopt;
  return entry.sw_seconds;
}

// One DPM service: the wait the policy reports, the flow, the clock.
bool serve_job(DpmVirtualClock& clock, double request_seconds, WarpSystem& system,
               MultiWarpEntry& entry, const MultiWarpOptions& options) {
  entry.dpm_wait_seconds = clock.start(request_seconds);
  const bool partitioned = dpm_phase(system, entry, options.cache, options.fault);
  clock.finish(entry.dpm_seconds);
  return partitioned;
}

// Single-threaded reference loop (the test oracle): every profile, then the
// DPM jobs in service order, then every re-run.
void run_reference(std::vector<std::unique_ptr<WarpSystem>>& systems,
                   std::vector<MultiWarpEntry>& entries, const MultiWarpOptions& options) {
  const std::size_t n = systems.size();
  DpmQueue queue(options, n);
  for (std::size_t i = 0; i < n; ++i) queue.file(i, profile_request(*systems[i], entries[i]));
  DpmVirtualClock clock{options.policy};
  std::vector<std::optional<bool>> partitioned(n);  // set once system i was served
  while (const auto job = queue.next()) {
    partitioned[*job] = serve_job(clock, queue.request_seconds(*job), *systems[*job],
                                  entries[*job], options);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (partitioned[i]) warped_phase(*systems[i], entries[i], *partitioned[i]);
  }
}

// Threaded engine. Workers profile systems in index order, then run the
// re-runs the DPM has granted; a worker never waits on its own grant. The
// calling thread is the DPM: it serves each job as soon as the queue knows
// it, one at a time, so early re-runs overlap later profiles and DPM jobs.
void run_threaded(std::vector<std::unique_ptr<WarpSystem>>& systems,
                  std::vector<MultiWarpEntry>& entries, const MultiWarpOptions& options,
                  unsigned threads) {
  const std::size_t n = systems.size();
  DpmQueue queue(options, n);
  std::mutex mutex;
  std::condition_variable dpm_cv;     // workers -> DPM: a system filed
  std::condition_variable worker_cv;  // DPM -> workers: a grant, or the DPM is done
  std::size_t next_profile = 0;
  std::deque<std::pair<std::size_t, bool>> granted;  // (system, partitioned)
  bool dpm_done = false;

  auto worker = [&] {
    std::unique_lock lock(mutex);
    for (;;) {
      if (next_profile < n) {
        const std::size_t i = next_profile++;
        lock.unlock();
        const std::optional<double> request = profile_request(*systems[i], entries[i]);
        lock.lock();
        queue.file(i, request);
        dpm_cv.notify_one();
      } else if (!granted.empty()) {
        const auto [i, partitioned] = granted.front();
        granted.pop_front();
        lock.unlock();
        warped_phase(*systems[i], entries[i], partitioned);
        lock.lock();
      } else if (dpm_done) {
        return;
      } else {
        worker_cv.wait(lock);
      }
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);

  // The DPM runs each flow outside the lock: the system's worker has filed
  // and will not touch it again until the grant.
  DpmVirtualClock clock{options.policy};
  std::unique_lock lock(mutex);
  for (;;) {
    std::optional<std::size_t> job;
    while (!(job = queue.next()) && !queue.drained()) dpm_cv.wait(lock);
    if (!job) break;
    const std::size_t i = *job;
    const double request_seconds = queue.request_seconds(i);
    lock.unlock();
    const bool partitioned = serve_job(clock, request_seconds, *systems[i], entries[i], options);
    lock.lock();
    granted.emplace_back(i, partitioned);
    worker_cv.notify_one();
  }
  dpm_done = true;
  worker_cv.notify_all();
  lock.unlock();
  for (auto& t : pool) t.join();
}

}  // namespace

std::vector<MultiWarpEntry> run_multiprocessor(
    std::vector<std::unique_ptr<WarpSystem>>& systems,
    const std::vector<std::string>& names, const MultiWarpOptions& options) {
  const std::size_t n = systems.size();
  std::vector<MultiWarpEntry> entries(n);
  for (std::size_t i = 0; i < n; ++i) {
    entries[i].name = (i < names.size()) ? names[i] : ("cpu" + std::to_string(i));
  }
  unsigned threads = options.threads ? options.threads : std::thread::hardware_concurrency();
  threads = static_cast<unsigned>(std::min<std::size_t>(threads, n));
  if (threads <= 1) {
    run_reference(systems, entries, options);
  } else {
    run_threaded(systems, entries, options, threads);
  }
  return entries;
}

std::vector<MultiWarpEntry> run_multiprocessor(
    std::vector<std::unique_ptr<WarpSystem>>& systems,
    const std::vector<std::string>& names) {
  return run_multiprocessor(systems, names, MultiWarpOptions{});
}

}  // namespace warp::warpsys
