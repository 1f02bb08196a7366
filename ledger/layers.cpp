// Outside-in layer timing for the traced run, and the attribution table.
#include <time.h>

#include <cmath>
#include <string>

#include "common/strings.hpp"
#include "ledger.hpp"
#include "partition/pipeline.hpp"

namespace ledger {
namespace {

std::uint64_t ns_since(Clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
}

}  // namespace

double wall_ms() {
  return std::chrono::duration<double, std::milli>(Clock::now().time_since_epoch()).count();
}

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return 1e3 * static_cast<double>(ts.tv_sec) + 1e-6 * static_cast<double>(ts.tv_nsec);
}

bool TimedStore::put(const warp::partition::CacheKey& key, std::uint32_t type_tag,
                     std::uint32_t type_version, const std::vector<std::uint8_t>& payload) {
  const auto start = Clock::now();
  const bool ok = inner_.put(key, type_tag, type_version, payload);
  put_ns += ns_since(start);
  ++puts;
  return ok;
}

std::optional<std::vector<std::uint8_t>> TimedStore::get(const warp::partition::CacheKey& key,
                                                         std::uint32_t type_tag,
                                                         std::uint32_t type_version) {
  const auto start = Clock::now();
  auto payload = inner_.get(key, type_tag, type_version);
  get_ns += ns_since(start);
  ++gets;
  if (payload) ++get_hits;
  return payload;
}

void add_hwsim_replay(warp::warpsys::WarpSystem& system, LayerTotals& totals, SpanClock clock) {
  warp::hwsim::WclaDevice& device = system.wcla();
  const auto invocations = static_cast<double>(device.stats().invocations);
  if (!device.configured() || invocations == 0.0) return;
  // Replays run on a copy so the system's memory keeps the checked result;
  // the timed work does not depend on the data.
  warp::sim::Memory memory = system.data_mem();
  constexpr int kReplays = 3;
  warp::hwsim::KernelRunResult last;
  const double start = clock();
  for (int i = 0; i < kReplays; ++i) {
    auto result = device.executor()->run(memory, device.invocation());
    if (!result) return;
    last = std::move(result).value();
  }
  totals.hwsim_ms += (clock() - start) / kReplays * invocations;
  totals.invocations += invocations;
  totals.packed_iters += static_cast<double>(last.packed_iterations) * invocations;
  totals.scalar_iters += static_cast<double>(last.scalar_iterations) * invocations;
}

void add_stages(const warp::warpsys::PartitionOutcome& outcome, LayerTotals& totals) {
  for (const auto& stage : outcome.stage_metrics) {
    totals.stage_ms[stage.name] += static_cast<double>(stage.host_ns) / 1e6;
  }
  totals.dpm_cycles += static_cast<double>(outcome.dpm_cycles);
  totals.cache_hits += static_cast<double>(outcome.cache_hits);
  totals.cache_lookups += static_cast<double>(outcome.cache_hits + outcome.cache_misses);
}

void report_layers(const LayerTotals& t, const StoreLayer& store, const ServeLayer& serve,
                   double untraced_op_ms, double untraced_cpu_ms, double traced_cpu_ms,
                   Report& report) {
  const double ops = t.ops > 0.0 ? t.ops : 1.0;
  const auto per_op = [&](double total) { return total / ops; };
  const auto share = [](double part, double whole) { return whole > 0.0 ? part / whole : 0.0; };
  // Coalesced followers copy their leader's entry and run no pipeline, so
  // in-process pipeline costs count once per pipeline run, not per session.
  const double runs = serve.pipeline_share;

  double stages_ms = 0.0;
  for (const auto& name : warp::partition::stage_names()) {
    const auto it = t.stage_ms.find(name);
    const double ms = it == t.stage_ms.end() ? 0.0 : per_op(it->second) * runs;
    stages_ms += ms;
    report.metric("partition." + name + "_ms", ms, "ms");
  }
  report.metric("partition.dpm_cycles", per_op(t.dpm_cycles), "cycles");
  report.metric("partition.cache_hit_share", share(t.cache_hits, t.cache_lookups), "share");

  report.metric("store.get_ms", per_op(store.get_ms) * runs, "ms");
  report.metric("store.put_ms", per_op(store.put_ms) * runs, "ms");
  report.metric("store.gets", per_op(store.gets) * runs, "count");
  report.metric("store.puts", per_op(store.puts) * runs, "count");
  report.metric("store.disk_hit_share", share(store.get_hits, store.gets), "share");

  const double hwsim_ms = per_op(t.hwsim_ms) * runs;
  report.metric("hwsim.exec_ms", hwsim_ms, "ms");
  report.metric("hwsim.packed_share", share(t.packed_iters, t.packed_iters + t.scalar_iters),
                "share");
  report.metric("hwsim.packed_iters", per_op(t.packed_iters) * runs, "count");
  report.metric("hwsim.scalar_iters", per_op(t.scalar_iters) * runs, "count");
  report.metric("hwsim.invocations", per_op(t.invocations) * runs, "count");

  const double sim_only_ms = per_op(t.sim_only_ms) * runs;
  report.metric("sim.run_ms", sim_only_ms, "ms");
  report.metric("sim.instructions", per_op(t.instructions) * runs, "count");
  report.metric("sim.mips", t.sim_only_ms > 0.0 ? t.instructions / t.sim_only_ms / 1e3 : 0.0,
                "MIPS");
  const double assemble_ms = per_op(t.assemble_ms) * runs;
  const double profile_ms = per_op(t.profile_ms) * runs;
  const double partition_ms = per_op(t.partition_ms) * runs;
  const double warped_ms = per_op(t.warped_ms) * runs;
  report.metric("isa.assemble_ms", assemble_ms, "ms");
  report.metric("warp.profile_ms", profile_ms, "ms");
  report.metric("warp.partition_ms", partition_ms, "ms");
  report.metric("warp.warped_run_ms", warped_ms, "ms");

  report.metric("serve.rtt_ms", serve.rtt_ms, "ms");
  report.metric("serve.service_ms", per_op(t.service_ms), "ms");
  report.metric("serve.wait_ms", serve.wait_ms, "ms");
  report.metric("serve.coalesced_share", serve.coalesced_share, "share");
  report.metric("serve.busy_share", serve.busy_share, "share");
  report.metric("serve.max_queue_depth", serve.max_queue_depth, "count");
  report.metric("serve.late_ms", serve.late_ms, "ms");

  // Self times: each layer's span minus the spans of the layers it calls.
  const double store_ms = per_op(store.get_ms + store.put_ms) * runs;
  const double build_ms = per_op(t.build_ms) * runs;
  struct Self {
    const char* layer;
    double ms;
  };
  const Self selfs[] = {
      {"isa", assemble_ms},
      {"sim", sim_only_ms + (warped_ms - hwsim_ms)},
      {"profiler", profile_ms - sim_only_ms},
      {"partition", partition_ms - stages_ms},
      {"partition.stages", stages_ms - store_ms},
      {"store", store_ms},
      {"hwsim", hwsim_ms},
      {"serve", (build_ms > 0.0 ? build_ms - assemble_ms : 0.0) + serve.rtt_ms},
      {"harness", per_op(t.op_ms) * runs - (build_ms > 0.0 ? build_ms : assemble_ms) -
                      profile_ms - partition_ms - warped_ms},
  };
  double sum = 0.0;
  report.notes.push_back("layer self times (ms per op):");
  for (const Self& self : selfs) {
    sum += self.ms;
    report.notes.push_back(warp::common::format("  %-18s %10.4f", self.layer, self.ms));
    report.metric(std::string("self.") + self.layer + "_ms", self.ms, "ms");
  }
  const double unattributed = untraced_op_ms - sum;
  report.notes.push_back(warp::common::format("  %-18s %10.4f", "sum", sum));
  report.notes.push_back(warp::common::format("  %-18s %10.4f", "untraced per op", untraced_op_ms));
  report.notes.push_back(warp::common::format("  %-18s %10.4f (%.1f%% of untraced)",
                                              "unattributed", unattributed,
                                              untraced_op_ms > 0.0
                                                  ? 100.0 * unattributed / untraced_op_ms
                                                  : 0.0));
  report.notes.push_back(warp::common::format(
      "  tracing overhead: cpu_ms_per_op traced %.4f - untraced %.4f = %.4f", traced_cpu_ms,
      untraced_cpu_ms, traced_cpu_ms - untraced_cpu_ms));
  report.metric("trace.self_sum_ms", sum, "ms");
  report.metric("trace.untraced_op_ms", untraced_op_ms, "ms");
  report.metric("trace.unattributed_ms", unattributed, "ms");
  report.metric("trace.overhead_cpu_ms", traced_cpu_ms - untraced_cpu_ms, "ms");
  report.fact_bool("trace_attributed_within_10pct",
                   untraced_op_ms > 0.0 && std::abs(unattributed) <= 0.1 * untraced_op_ms);
}

}  // namespace ledger
