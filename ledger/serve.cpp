// serve_warm: open-loop warpd sessions over a unix socket.
//
// A warpd daemon child of the ledger process serves a seeded request stream sent on
// a fixed schedule, whatever the replies do. The first rung of the rate
// ladder is the workload's fixed rate, where latency is reported; a search
// over the rungs around it finds the highest rate whose tail latency meets
// the workload's limit without a growing backlog. Every ok reply must match a serial
// reference (serve::run_serial) on every field except dpm_wait_seconds.
#include <algorithm>
#include <array>
#include <cmath>
#include <filesystem>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "helpers.hpp"
#include "ledger.hpp"
#include "partition/cache.hpp"
#include "partition/disk_store.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/warpd.hpp"
#include "workloads/workload.hpp"

namespace ledger {
namespace {

namespace protocol = warp::serve::protocol;
using warp::warpsys::MultiWarpEntry;

// serve_warm's traffic: the seven idct-free workloads with every host-side
// override, and a quarter of requests repeated back to back so coalescing
// engages. Every CAD stage is a cache or disk hit, so the ISS, short-trip
// hwsim, the cache and the serve layer carry the cost.
const StreamSpec kStream{
    {"brev", "g3fax", "canrdr", "bitmnp", "matmul", "crc", "fir"}, {0, 1, 2, 4}, {2, 4, 8}, 0.25};
constexpr double kRate = 200.0;  // the fixed offered rate, rung 0 of the ladder
constexpr double kTailPercentile = 99.0;
constexpr std::size_t kMaxTailWindows = 5;
constexpr double kLimitMs = 100.0;  // p99 limit of a rung that meets, for max_rate_per_s
// Samples a rung needs for a supported p99, with a 10% margin.
constexpr double kRungSamples = 1.1 * kMinBeyond / (1.0 - kTailPercentile / 100.0);
// The rate ladder: rung k offers kRate * kLadderStep^k, k >= kLowestRung. The
// search starts at kStartLoad of the capacity the fixed rung's daemon CPU
// time implies and tests at most kMaxRungs rungs besides the fixed rate.
constexpr double kLadderStep = 1.1;
constexpr int kLowestRung = -7;  // half the fixed rate
constexpr double kStartLoad = 0.95;
constexpr int kMaxRungs = 4;
// Share of an untraced run spent at the fixed rate; the ladder takes the rest.
constexpr double kFixedShare = 0.85;

using RefTable = std::map<std::string, MultiWarpEntry>;

std::string key_string(const StreamKey& key) {
  return warp::common::format("%s|%u|%u", key.workload.c_str(), key.packed_width,
                              key.max_candidates);
}

protocol::Request to_request(const StreamKey& key, std::uint64_t id) {
  protocol::Request request;
  request.id = id;
  request.workload = key.workload;
  request.overrides.packed_width = key.packed_width;
  request.overrides.max_candidates = key.max_candidates;
  return request;
}

bool pure_fields_match(const MultiWarpEntry& a, const MultiWarpEntry& b) {
  return a.name == b.name && a.detail == b.detail && a.sw_seconds == b.sw_seconds &&
         a.warped_seconds == b.warped_seconds && a.speedup == b.speedup &&
         a.dpm_seconds == b.dpm_seconds && a.warped == b.warped;
}

// One serial, cache-less session per key: the reference every reply meets.
RefTable build_references() {
  const std::vector<StreamKey> keys = key_space(kStream);
  std::vector<protocol::Request> requests;
  for (std::size_t i = 0; i < keys.size(); ++i) requests.push_back(to_request(keys[i], i));
  warp::serve::WarpdOptions options;
  options.base = warp::experiments::default_options();
  const auto outcomes = warp::serve::run_serial(requests, options);
  RefTable refs;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (outcomes[i].status != protocol::ReplyStatus::kOk || !outcomes[i].entry.warped) {
      throw std::runtime_error("serial reference failed for " + key_string(keys[i]) + ": " +
                               outcomes[i].entry.detail + outcomes[i].error);
    }
    refs[key_string(keys[i])] = outcomes[i].entry;
  }
  return refs;
}

// Mean normalized warp energy of the served workloads, from the paper flow.
double energy_norm_of() {
  double sum = 0.0;
  for (const auto& name : kStream.workloads) {
    const auto result = warp::experiments::run_benchmark(warp::workloads::workload_by_name(name),
                                                         warp::experiments::default_options());
    if (!result.ok) throw std::runtime_error("paper flow failed for " + name);
    sum += result.warp_energy_norm;
  }
  return sum / static_cast<double>(kStream.workloads.size());
}

struct StreamRun {
  std::vector<Timing> ok_timing;
  std::vector<double> outstanding;  // sampled every kSampleS while sending
  std::size_t attempted = 0;
  std::size_t failed = 0;
  double span_s = 0.0;              // rung start to last reply
  std::map<std::string, std::vector<double>> speedups;
  std::vector<double> stats_rtt_ms;
};

constexpr double kSampleS = 0.05;
constexpr double kStatsPollS = 0.1;
constexpr double kReplyGraceS = 30.0;

// Send `keys` open-loop at the `due` offsets over two connections, match
// every reply against the references, and sample the outstanding count.
// With `poll_stats`, the sender also times a `stats` round trip every
// kStatsPollS on a third connection. Threads: this one plus two readers.
StreamRun run_stream(const std::string& socket, const std::vector<StreamKey>& keys,
                     const std::vector<double>& due, const RefTable& refs, std::uint64_t id_base,
                     bool poll_stats) {
  const std::size_t n = keys.size();
  StreamRun run;
  run.attempted = n;
  std::vector<std::string> lines(n);
  for (std::size_t i = 0; i < n; ++i) {
    lines[i] = protocol::encode_request(to_request(keys[i], id_base + i));
  }

  constexpr std::size_t kConnections = 2;
  std::array<warp::serve::Client, kConnections> clients;
  for (auto& client : clients) {
    if (const auto status = client.connect(socket); !status) {
      throw std::runtime_error("connect " + socket + ": " + status.message());
    }
  }
  warp::serve::Client stats_client;
  if (poll_stats && !stats_client.connect(socket)) {
    throw std::runtime_error("connect " + socket + " for stats");
  }

  std::mutex mutex;  // guards everything below up to `resolved`
  std::vector<Timing> timing(n);
  enum : std::uint8_t { kPending, kOk, kFailed };
  std::vector<std::uint8_t> state(n, kPending);
  std::size_t resolved = 0;
  std::size_t stray = 0;  // replies that name no request of this rung

  const auto start = Clock::now();
  const auto since_start = [&] {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  const auto reader = [&](std::stop_token stop, warp::serve::Client& client) {
    while (!stop.stop_requested()) {
      auto line = client.read_line_for(50);
      if (!line) {
        if (line.message() == "timeout") continue;
        return;
      }
      const double now = since_start();
      auto reply = protocol::parse_reply(line.value());
      std::lock_guard<std::mutex> lock(mutex);
      const std::uint64_t index = reply ? reply.value().id - id_base : n;
      if (!reply || reply.value().id < id_base || index >= n || state[index] != kPending) {
        ++stray;
        continue;
      }
      const protocol::Reply& r = reply.value();
      const bool ok = r.status == protocol::ReplyStatus::kOk &&
                      pure_fields_match(protocol::entry_of(r), refs.at(key_string(keys[index])));
      timing[index].done = now;
      state[index] = ok ? kOk : kFailed;
      if (ok) run.speedups[r.workload].push_back(r.speedup);
      ++resolved;
    }
  };
  // Declared after everything the readers touch, so even an exception
  // stops and joins them before that state goes away.
  std::vector<std::jthread> readers;
  for (auto& client : clients) readers.emplace_back(reader, std::ref(client));

  const auto time_stats = [&] {
    const auto t = Clock::now();
    if (stats_client.send_line("stats") && stats_client.read_line_for(5'000)) {
      run.stats_rtt_ms.push_back(ms_since(t));
    }
  };
  double next_sample = 0.0;
  double next_stats = 0.0;
  const auto housekeeping = [&](std::size_t sent) {
    const double now = since_start();
    if (now >= next_sample) {
      std::lock_guard<std::mutex> lock(mutex);
      run.outstanding.push_back(static_cast<double>(sent - resolved));
      next_sample += kSampleS;
    }
    if (poll_stats && now >= next_stats) {
      time_stats();
      next_stats += kStatsPollS;
    }
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (;;) {
      housekeeping(i);
      const double now = since_start();
      if (now >= due[i]) break;
      const double wake = std::min(due[i], next_sample);
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(wake)));
    }
    {
      std::lock_guard<std::mutex> lock(mutex);
      timing[i].due = due[i];
      timing[i].sent = since_start();
    }
    if (!clients[i % kConnections].send_line(lines[i])) break;
  }
  const double deadline = (n ? due.back() : 0.0) + kReplyGraceS;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (resolved == n) break;
    }
    if (since_start() > deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  readers.clear();  // request stop and join

  for (std::size_t i = 0; i < n; ++i) {
    if (state[i] == kOk) {
      run.ok_timing.push_back(timing[i]);
      run.span_s = std::max(run.span_s, timing[i].done);
    } else {
      ++run.failed;
    }
  }
  run.failed += stray;
  return run;
}

std::vector<double> latencies(const StreamRun& run) {
  std::vector<double> out;
  for (const Timing& t : run.ok_timing) out.push_back(latency_ms(t));
  return out;
}

std::vector<double> lateness(const StreamRun& run) {
  std::vector<double> out;
  for (const Timing& t : run.ok_timing) out.push_back(lateness_ms(t));
  return out;
}

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::string store_dir_of(const Args& args) { return args.run_dir + "/store"; }

// The timed set-up: a daemon fills a fresh store with every key and drains;
// then the measured daemon starts on that store.
std::unique_ptr<Daemon> set_up(const Args& args, int k, const RefTable& refs, Report& report) {
  const std::string base = args.run_dir + "/s" + std::to_string(k);
  const std::string store_dir = store_dir_of(args);
  std::filesystem::remove_all(store_dir);
  {
    Daemon fill(DaemonConfig{base + "-fill.sock", store_dir});
    const std::vector<StreamKey> keys = key_space(kStream);
    const StreamRun run = run_stream(fill.socket(), keys, std::vector<double>(keys.size(), 0.0),
                                     refs, 0, false);
    report.attempted += run.attempted;
    report.fail(run.failed);
    if (!fill.drain().clean_exit) report.fail();
  }
  return std::make_unique<Daemon>(DaemonConfig{base + ".sock", store_dir});
}

// One session's layer calls, each timed from outside on the thread's CPU
// clock: the build, the three warp phases, then (outside the op) the
// assembler and the ISS alone (the same binary run unprofiled, as the
// software fallback runs it), the hwsim replay and the serial engine's
// service time.
void traced_session(const StreamKey& key, warp::partition::ArtifactCache* cache,
                    LayerTotals& t) {
  warp::experiments::HarnessOptions options = warp::experiments::default_options();
  options.system.packed.width = key.packed_width;
  options.system.dpm.max_candidates = key.max_candidates;
  const auto& workload = warp::workloads::workload_by_name(key.workload);

  const double op_start = thread_cpu_ms();
  double start = thread_cpu_ms();
  auto systems = warp::experiments::build_warp_systems({key.workload}, options);
  t.build_ms += thread_cpu_ms() - start;
  if (!systems) throw std::runtime_error("build " + key.workload + ": " + systems.message());
  warp::warpsys::WarpSystem& system = *systems.value()[0];
  MultiWarpEntry entry;
  start = thread_cpu_ms();
  const bool has_job = warp::warpsys::profile_phase(system, entry);
  t.profile_ms += thread_cpu_ms() - start;
  t.instructions += static_cast<double>(system.core().stats().instructions);
  if (has_job) {
    start = thread_cpu_ms();
    const bool partitioned = warp::warpsys::dpm_phase(system, entry, cache, nullptr);
    t.partition_ms += thread_cpu_ms() - start;
    if (system.outcome() != nullptr) add_stages(*system.outcome(), t);
    start = thread_cpu_ms();
    warp::warpsys::warped_phase(system, entry, partitioned);
    t.warped_ms += thread_cpu_ms() - start;
  }
  t.op_ms += thread_cpu_ms() - op_start;
  t.ops += 1.0;

  start = thread_cpu_ms();
  (void)warp::isa::assemble(workload.source, options.cpu);
  t.assemble_ms += thread_cpu_ms() - start;
  auto plain = warp::experiments::build_warp_systems({key.workload}, options);
  start = thread_cpu_ms();
  if (plain) (void)plain.value()[0]->run_warped();
  t.sim_only_ms += thread_cpu_ms() - start;
  add_hwsim_replay(system, t, thread_cpu_ms);

  warp::serve::WarpdOptions serial;
  serial.base = warp::experiments::default_options();
  serial.cache = cache;
  start = thread_cpu_ms();
  (void)warp::serve::run_serial({to_request(key, 0)}, serial);
  t.service_ms += thread_cpu_ms() - start;
}

double stat(const std::map<std::string, double>& stats, const char* key) {
  const auto it = stats.find(key);
  return it == stats.end() ? 0.0 : it->second;
}

}  // namespace

Report run_serve(const Args& args) {
  Report report;
  const std::string store_dir = store_dir_of(args);

  // The checks' references and the energy figures are the benchmark's own
  // work, outside the timed set-up.
  const RefTable refs = build_references();
  const double energy_norm = energy_norm_of();
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int k = 0; k < kSetups; ++k) {
    if (daemon) daemon->drain();
    const auto start = Clock::now();
    daemon = set_up(args, k, refs, report);
    setup_s.push_back(ms_since(start) / 1e3);
  }
  const auto account = [&](const StreamRun& run) {
    report.attempted += run.attempted;
    report.fail(run.failed);
  };

  // The fixed-rate rung runs on the set-up daemon for kFixedShare of the run
  // (half of it in a traced run, whose other half repeats it traced), and
  // the daemon then drains, so its CPU time and peak RSS cover exactly that
  // rung. Every other rung runs just long enough for a p99.
  const auto rung_stream = [&](int rung) {
    const double rate = ladder_rate(kRate, kLadderStep, rung);
    const double seconds =
        rung == 0 ? args.seconds * (args.trace ? 0.5 : kFixedShare) : kRungSamples / rate;
    const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
    const std::uint64_t rung_seed =
        args.seed * 1000003 + static_cast<std::uint64_t>(rung - kLowestRung);
    return std::make_pair(make_stream(kStream, rung_seed, n), due_offsets(rate, n, rung_seed));
  };
  std::uint64_t id_base = 1'000'000;
  const auto [keys, due] = rung_stream(0);
  const StreamRun fixed = run_stream(daemon->socket(), keys, due, refs, id_base, false);
  id_base += keys.size();
  account(fixed);
  const auto fixed_stats = query_stats(daemon->socket());
  const Usage fixed_usage = daemon->drain();
  daemon.reset();
  if (!fixed_usage.clean_exit || !fixed_stats) report.fail();
  const double fixed_cpu_ms_per_op =
      fixed.ok_timing.empty() ? 0.0
                              : fixed_usage.cpu_ms / static_cast<double>(fixed.ok_timing.size());
  const std::vector<double> lat = latencies(fixed);
  const std::vector<double> late = lateness(fixed);
  const auto describe = [&](const Rung& rung, const std::vector<double>& rung_lat) {
    report.notes.push_back(warp::common::format(
        "rung %.1f/s: %zu ok, %zu failed, p50 %.3f ms, p99 %s ms, backlog %s", rung.rate_per_s,
        rung.samples, rung.failed, percentile(rung_lat, 50.0).value_or(-1.0),
        rung.tail_ms ? warp::common::format("%.3f", *rung.tail_ms).c_str() : "n/a",
        rung.backlog_grew ? "grew" : "steady"));
  };
  report.fact_num("offered_rate_per_s", kRate);
  report.fact_str("loop", "open, 2 connections");
  report.fact_num("latency_samples", static_cast<double>(lat.size()));
  report.fact_num("generator_late_ms_p50", percentile(late, 50.0).value_or(-1.0));
  report.fact_num("generator_late_ms_max",
                  late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
  report.fact_bool("backlog_grew", backlog_grew(fixed.outstanding));
  report.fact_num("peak_rss_mb", fixed_usage.peak_rss_mb);

  if (!args.trace) {
    // The tail is the median of up to kMaxTailWindows windows' p99, with as
    // many windows as the samples support; else the highest percentile the
    // pooled samples support.
    std::vector<std::pair<double, double>> timed_lat;
    for (const Timing& t : fixed.ok_timing) timed_lat.emplace_back(t.due, latency_ms(t));
    const auto windowed = windowed_percentile(timed_lat, kTailPercentile, kMaxTailWindows);
    std::optional<double> tail;
    double tail_p = kTailPercentile;
    double tail_windows = 1;
    if (windowed) {
      tail = windowed->value;
      tail_windows = static_cast<double>(windowed->windows);
    } else {
      tail_p = highest_supported_percentile(lat.size(), {kTailPercentile, 95.0, 90.0});
      tail = percentile(lat, tail_p);
    }
    // The fixed rung meets the limit on its pooled p99, like every rung.
    std::vector<Rung> tested = {Rung{kRate, lat.size(), fixed.failed,
                                     percentile(lat, kTailPercentile),
                                     backlog_grew(fixed.outstanding)}};
    describe(tested.back(), lat);
    std::map<int, bool> met = {{0, rung_meets(tested.back(), kLimitMs)}};
    // The capacity the fixed rung's CPU time implies if the daemon's workers
    // were always busy; the search starts just below it, then climbs, or
    // bisects after a miss, to the boundary.
    const double capacity_per_s =
        fixed_cpu_ms_per_op > 0.0 ? 1e3 * kDaemonWorkers / fixed_cpu_ms_per_op : 0.0;
    report.fact_num("cpu_capacity_per_s", capacity_per_s);
    {
      Daemon ladder_daemon(DaemonConfig{args.run_dir + "/ladder.sock", store_dir});
      std::optional<int> rung =
          start_rung(kRate, kLadderStep, capacity_per_s, kStartLoad, kLowestRung);
      if (met.contains(*rung)) rung = next_rung(met, kLowestRung);
      for (int run_count = 0; rung && run_count < kMaxRungs; ++run_count) {
        const auto [rung_keys, rung_due] = rung_stream(*rung);
        const StreamRun run =
            run_stream(ladder_daemon.socket(), rung_keys, rung_due, refs, id_base, false);
        id_base += rung_keys.size();
        account(run);
        const std::vector<double> rung_lat = latencies(run);
        tested.push_back(Rung{ladder_rate(kRate, kLadderStep, *rung), rung_lat.size(),
                              run.failed, percentile(rung_lat, kTailPercentile),
                              backlog_grew(run.outstanding)});
        describe(tested.back(), rung_lat);
        met[*rung] = rung_meets(tested.back(), kLimitMs);
        rung = next_rung(met, kLowestRung);
      }
      report.fact_bool("ladder_boundary_found", !rung.has_value());
      if (!ladder_daemon.drain().clean_exit) report.fail();
    }

    const double speedup = mean_over_workloads(fixed.speedups);
    report.fact_num("tail_windows", tail_windows);
    report.fact_num("tail_percentile", tail_p);
    report.fact_num("latency_limit_ms", kLimitMs);
    report.fact_num("rungs_run", static_cast<double>(tested.size()));
    report.fact_num("mean_speedup", speedup);
    report.fact_num("mean_energy_norm", energy_norm);
    if (fixed_stats) {
      report.fact_num("coalesced", stat(*fixed_stats, "coalesced"));
      report.fact_num("pipeline_runs", stat(*fixed_stats, "pipeline_runs"));
      report.fact_num("disk_hits", stat(*fixed_stats, "disk_hits"));
    }

    report.metric("setup_s", median(setup_s), "s");
    report.metric("flows_per_s", fixed.span_s > 0.0
                                     ? static_cast<double>(fixed.ok_timing.size()) / fixed.span_s
                                     : 0.0,
                  "1/s");
    report.metric("latency_p50_ms", percentile(lat, 50.0).value_or(0.0), "ms");
    report.metric("latency_tail_ms", tail.value_or(0.0), "ms");
    report.metric("max_rate_per_s", max_rate(tested, kLimitMs), "1/s");
    report.metric("cpu_ms_per_op", fixed_cpu_ms_per_op, "ms");
    report.metric("ok_share",
                  1.0 - static_cast<double>(report.failed) /
                            static_cast<double>(std::max<std::uint64_t>(1, report.attempted)),
                  "share");
    report.metric("speedup_err_pct", 100.0 * std::abs(speedup - kPaperSpeedup) / kPaperSpeedup,
                  "%");
    report.metric("energy_err_pct",
                  100.0 * std::abs(energy_norm - kPaperEnergyNorm) / kPaperEnergyNorm, "%");
    return report;
  }

  // Traced run: the fixed rung above was the untraced half. Its sessions
  // are replayed layer by layer in-process right after it, so the replay
  // and the daemon's CPU time it is compared with see the host alike. Then
  // the same stream goes to a fresh daemon in the same state, timing stats
  // round trips.
  warp::partition::DiskArtifactStore disk(warp::partition::DiskStoreOptions{.directory = store_dir});
  TimedStore timed(disk);
  warp::partition::ArtifactCache cache;
  cache.attach_store(&timed);
  LayerTotals totals;
  const auto replay_start = Clock::now();
  for (std::size_t i = 0; i < keys.size() && ms_since(replay_start) < 1e3 * args.seconds / 4.0;
       ++i) {
    traced_session(keys[i], &cache, totals);
  }

  Daemon traced_daemon(DaemonConfig{args.run_dir + "/traced.sock", store_dir});
  const StreamRun traced = run_stream(traced_daemon.socket(), keys, due, refs, id_base,
                                      true);
  account(traced);
  const auto stats = query_stats(traced_daemon.socket());
  const Usage traced_usage = traced_daemon.drain();
  if (!stats || !traced_usage.clean_exit) report.fail();

  ServeLayer serve;
  serve.rtt_ms = mean(traced.stats_rtt_ms);
  serve.wait_ms = mean(latencies(traced)) - totals.service_ms / std::max(1.0, totals.ops);
  serve.late_ms = mean(lateness(traced));
  if (stats) {
    const double completed = std::max(1.0, stat(*stats, "completed"));
    serve.coalesced_share = stat(*stats, "coalesced") / completed;
    serve.pipeline_share = stat(*stats, "pipeline_runs") / completed;
    serve.busy_share =
        stat(*stats, "busy") / std::max(1.0, stat(*stats, "admitted") + stat(*stats, "busy"));
    serve.max_queue_depth = stat(*stats, "max_queue_depth");
  }
  StoreLayer store;
  store.gets = static_cast<double>(timed.gets.load());
  store.get_hits = static_cast<double>(timed.get_hits.load());
  store.puts = static_cast<double>(timed.puts.load());
  store.get_ms = static_cast<double>(timed.get_ns.load()) / 1e6;
  store.put_ms = static_cast<double>(timed.put_ns.load()) / 1e6;
  report.fact_num("replayed_sessions", totals.ops);
  const double traced_cpu_ms_per_op =
      traced.ok_timing.empty() ? 0.0
                               : traced_usage.cpu_ms / static_cast<double>(traced.ok_timing.size());
  report_layers(totals, store, serve, fixed_cpu_ms_per_op, fixed_cpu_ms_per_op,
                traced_cpu_ms_per_op, report);
  report.metric("process.peak_rss_mb", fixed_usage.peak_rss_mb, "MB");
  return report;
}

bool is_serve_workload(const std::string& name) { return name == "serve_warm"; }

}  // namespace ledger
