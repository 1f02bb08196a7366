// paper_flow: the paper's reproduction path as a closed loop with one client.
//
// The six Figure 6/7 workloads run round-robin (a seeded order per round)
// through experiments::run_benchmark with no artifact cache, so every flow
// runs the whole profile -> DPM -> warped-run pipeline. Every flow must pass
// its golden checks and repeat the set-up reference's simulated fields bit
// for bit.
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "arm/arm_model.hpp"
#include "experiments/harness.hpp"
#include "helpers.hpp"
#include "ledger.hpp"
#include "workloads/workload.hpp"

namespace ledger {
namespace {

using warp::experiments::BenchmarkResult;

/// Every simulated number of a flow; host timings are excluded.
bool same_simulated(const BenchmarkResult& a, const BenchmarkResult& b) {
  const auto same_arm = [&] {
    if (a.arm.size() != b.arm.size()) return false;
    for (std::size_t i = 0; i < a.arm.size(); ++i) {
      if (a.arm[i].seconds != b.arm[i].seconds || a.arm[i].energy_mj != b.arm[i].energy_mj) {
        return false;
      }
    }
    return true;
  };
  return a.ok == b.ok && a.warped == b.warped && a.warp_detail == b.warp_detail &&
         a.mb_seconds == b.mb_seconds && a.mb_energy_mj == b.mb_energy_mj &&
         a.mb_stats.cycles == b.mb_stats.cycles &&
         a.mb_stats.instructions == b.mb_stats.instructions &&
         a.warp_seconds == b.warp_seconds && a.warp_energy_mj == b.warp_energy_mj &&
         a.warp_speedup == b.warp_speedup && a.warp_energy_norm == b.warp_energy_norm &&
         a.dpm_seconds == b.dpm_seconds && a.outcome.dpm_cycles == b.outcome.dpm_cycles &&
         a.outcome.luts == b.outcome.luts && a.warp_run.core.cycles == b.warp_run.core.cycles &&
         a.warp_run.wcla.invocations == b.warp_run.wcla.invocations &&
         a.warp_run.wcla.wcla_cycles == b.warp_run.wcla.wcla_cycles && same_arm();
}

/// The flow of run_benchmark, step by step, with a span around each layer
/// call. Returns whether the flow passed its golden checks.
bool traced_flow(const warp::workloads::Workload& workload,
                 const warp::experiments::HarnessOptions& options, LayerTotals& totals) {
  const double op_start = wall_ms();
  double start = wall_ms();
  auto program = warp::isa::assemble(workload.source, options.cpu);
  totals.assemble_ms += wall_ms() - start;
  if (!program) return false;
  warp::warpsys::WarpSystemConfig config = options.system;
  config.cpu = options.cpu;
  warp::warpsys::WarpSystem system(program.value(), workload.init, config);

  start = wall_ms();
  auto sw = system.run_software();
  totals.profile_ms += wall_ms() - start;
  if (!sw || !workload.check(system.data_mem())) return false;

  start = wall_ms();
  const warp::warpsys::PartitionOutcome& outcome = system.warp(nullptr);
  totals.partition_ms += wall_ms() - start;
  if (!outcome.success) return false;

  start = wall_ms();
  auto warped = system.run_warped();
  totals.warped_ms += wall_ms() - start;
  if (!warped || !workload.check(system.data_mem())) return false;
  for (const auto& core :
       {warp::arm::arm7(), warp::arm::arm9(), warp::arm::arm10(), warp::arm::arm11()}) {
    (void)warp::arm::estimate(core, sw.value().core);
  }
  totals.op_ms += wall_ms() - op_start;
  totals.ops += 1.0;

  // Outside the op: the ISS alone (the same binary run unprofiled, as the
  // software fallback runs it), and the hwsim replay.
  add_stages(outcome, totals);
  totals.instructions += static_cast<double>(sw.value().core.instructions);
  warp::warpsys::WarpSystem plain(program.value(), workload.init, config);
  start = wall_ms();
  (void)plain.run_warped();
  totals.sim_only_ms += wall_ms() - start;
  add_hwsim_replay(system, totals, wall_ms);
  return true;
}

struct LoopResult {
  std::vector<double> latency_ms;
  std::map<std::string, std::vector<double>> latency_by_workload;
  double elapsed_s = 0.0;
  double cpu_ms = 0.0;
  std::uint64_t flows = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::vector<double>> speedups;
  std::map<std::string, std::vector<double>> energies;
};

/// One seeded round of the six workloads, added to `loop`; with `traced`,
/// each flow is split into its layer calls.
void run_round(const std::vector<BenchmarkResult>& refs, std::uint64_t seed, std::uint64_t round,
               LayerTotals* traced, LoopResult& loop) {
  const auto& workloads = warp::workloads::all_workloads();
  const auto options = warp::experiments::default_options();
  for (const std::size_t i : permutation(workloads.size(), seed * 1000003 + round)) {
    const auto flow_start = Clock::now();
    bool ok = true;
    if (traced != nullptr) {
      ok = traced_flow(workloads[i], options, *traced);
    } else {
      const BenchmarkResult result = warp::experiments::run_benchmark(workloads[i], options);
      ok = result.ok && same_simulated(result, refs[i]);
      loop.speedups[result.name].push_back(result.warp_speedup);
      loop.energies[result.name].push_back(result.warp_energy_norm);
    }
    const double latency = ms_since(flow_start);
    loop.latency_ms.push_back(latency);
    loop.latency_by_workload[workloads[i].name].push_back(latency);
    ++loop.flows;
    if (!ok) ++loop.failed;
  }
}

/// Whole untraced rounds until `seconds` have passed.
LoopResult closed_loop(const std::vector<BenchmarkResult>& refs, std::uint64_t seed,
                       double seconds) {
  LoopResult loop;
  const double cpu_start = self_usage().cpu_ms;
  const auto start = Clock::now();
  for (std::uint64_t round = 0; ms_since(start) < 1e3 * seconds; ++round) {
    run_round(refs, seed, round, nullptr, loop);
  }
  loop.elapsed_s = ms_since(start) / 1e3;
  loop.cpu_ms = self_usage().cpu_ms - cpu_start;
  return loop;
}

/// The traced run: untraced and traced rounds alternate for `seconds`, so
/// both halves run on the host as it is at the time, however its speed
/// drifts; each half's time and CPU time are its own rounds' sums.
void interleaved_loop(const std::vector<BenchmarkResult>& refs, std::uint64_t seed,
                      double seconds, LoopResult& untraced, LoopResult& traced,
                      LayerTotals& totals) {
  const auto start = Clock::now();
  for (std::uint64_t round = 0; ms_since(start) < 1e3 * seconds; ++round) {
    const bool trace = round % 2 == 1;
    LoopResult& half = trace ? traced : untraced;
    const double cpu_start = self_usage().cpu_ms;
    const auto round_start = Clock::now();
    run_round(refs, seed, round, trace ? &totals : nullptr, half);
    half.elapsed_s += ms_since(round_start) / 1e3;
    half.cpu_ms += self_usage().cpu_ms - cpu_start;
  }
}

}  // namespace

Report run_paper_flow(const Args& args) {
  Report report;
  constexpr double kTailPercentile = 90.0;

  // Set-up: one reference flow per workload, whose simulated fields every
  // measured flow must repeat exactly.
  std::vector<BenchmarkResult> refs;
  std::vector<double> setup_s;
  for (int k = 0; k < kSetups; ++k) {
    const auto start = Clock::now();
    refs.clear();
    for (const auto& workload : warp::workloads::all_workloads()) {
      refs.push_back(
          warp::experiments::run_benchmark(workload, warp::experiments::default_options()));
      if (!refs.back().ok || !refs.back().warped) {
        report.notes.push_back("reference flow failed: " + refs.back().name + " " +
                               refs.back().error);
        report.fail();
      }
    }
    setup_s.push_back(ms_since(start) / 1e3);
  }

  LoopResult loop;
  LoopResult traced;
  LayerTotals totals;
  if (args.trace) {
    interleaved_loop(refs, args.seed, args.seconds, loop, traced, totals);
  } else {
    loop = closed_loop(refs, args.seed, args.seconds);
  }
  report.attempted += loop.flows;
  report.fail(loop.failed);
  const double flows_per_s = static_cast<double>(loop.flows) / loop.elapsed_s;
  const double cpu_ms_per_op = loop.cpu_ms / static_cast<double>(loop.flows);
  const double peak_rss_mb = self_usage().peak_rss_mb;
  // Flow times form six clusters, one per workload, and the pooled median
  // falls on the boundary between two of them; the median of the
  // per-workload medians is the typical flow time without that instability.
  std::vector<double> workload_medians;
  for (const auto& [name, values] : loop.latency_by_workload) {
    workload_medians.push_back(median(values));
  }
  const double p50 = median(workload_medians);
  const double tail_p =
      highest_supported_percentile(loop.latency_ms.size(), {kTailPercentile, 75.0, 50.0});
  const auto tail = percentile(loop.latency_ms, tail_p);

  report.fact_num("offered_rate_per_s", 0.0);
  report.fact_str("loop", "closed, 1 client");
  report.fact_num("latency_samples", static_cast<double>(loop.latency_ms.size()));
  report.fact_num("tail_percentile", tail_p);
  report.fact_num("generator_late_ms", 0.0);
  report.fact_bool("backlog_grew", false);
  report.fact_num("peak_rss_mb", peak_rss_mb);

  if (!args.trace) {
    const double speedup = mean_over_workloads(loop.speedups);
    const double energy = mean_over_workloads(loop.energies);
    report.metric("setup_s", median(setup_s), "s");
    report.metric("flows_per_s", flows_per_s, "1/s");
    report.metric("latency_p50_ms", p50, "ms");
    report.metric("latency_tail_ms", tail.value_or(0.0), "ms");
    // One closed-loop client sustains exactly its own completion rate.
    report.metric("max_rate_per_s", flows_per_s, "1/s");
    report.metric("cpu_ms_per_op", cpu_ms_per_op, "ms");
    report.metric("ok_share", 1.0 - static_cast<double>(report.failed) /
                                        static_cast<double>(report.attempted),
                  "share");
    report.metric("speedup_err_pct", 100.0 * std::abs(speedup - kPaperSpeedup) / kPaperSpeedup,
                  "%");
    report.metric("energy_err_pct",
                  100.0 * std::abs(energy - kPaperEnergyNorm) / kPaperEnergyNorm, "%");
    report.fact_num("mean_speedup", speedup);
    report.fact_num("mean_energy_norm", energy);
    return report;
  }

  report.attempted += traced.flows;
  report.fail(traced.failed);
  const double untraced_op_ms = 1e3 * loop.elapsed_s / static_cast<double>(loop.flows);
  report_layers(totals, StoreLayer{}, ServeLayer{}, untraced_op_ms, cpu_ms_per_op,
                traced.cpu_ms / static_cast<double>(traced.flows), report);
  report.metric("process.peak_rss_mb", peak_rss_mb, "MB");
  return report;
}

}  // namespace ledger
