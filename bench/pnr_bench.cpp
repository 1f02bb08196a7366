// PnR microbenchmark: place+route wall clock of the lean on-chip CAD stage,
// pre-incremental baseline vs. the incremental engines, on the six paper
// kernels' mapped netlists (the exact PnR inputs the DPM sees).
//
//   - placement: exact-rescan annealer (recompute affected nets' HPWL from
//     endpoints per move) vs. maintained per-net bounding boxes with O(1)
//     deltas. Same seed must give bit-identical placements in both modes.
//   - routing: full rip-up-and-reroute-everything negotiated congestion vs.
//     selective rip-up with persistent trees and history. Routes are
//     bit-identical whenever routing converges in one iteration; kernels
//     that need congestion iterations may converge to a different legal
//     route (the JSON records both critical paths).
//
// Every arm is timed over a fixed number of repetitions after one warm-up
// call; the tool reports the median and the minimum wall time per call,
// and records the repetition count and the host's thread count.
//
// Emits BENCH_pnr.json in the working directory so the performance
// trajectory is tracked in-repo. Exits nonzero if the two placers disagree
// or any engine fails — speed ratios are reported, not gated (machine-
// dependent).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "experiments/harness.hpp"
#include "fabric/wcla.hpp"
#include "pnr/pnr.hpp"
#include "workloads/workload.hpp"

namespace {

using namespace warp;

constexpr unsigned kRepetitions = 7;
static_assert(kRepetitions % 2 == 1, "the median is the middle repetition");

struct Timing {
  double median_ms = 0.0;
  double min_ms = 0.0;
};

struct KernelResult {
  std::string name;
  std::size_t luts = 0;
  std::size_t nets = 0;
  Timing place_legacy;
  Timing place_incremental;
  Timing route_legacy;
  Timing route_selective;
  double place_speedup = 0.0;
  double route_speedup = 0.0;
  double route_selective_ns_per_expansion = 0.0;
  double total_speedup = 0.0;
  bool placement_identical = false;
  bool routes_identical = false;
  unsigned route_iterations = 0;
  std::uint64_t nets_rerouted = 0;
  std::uint64_t delta_evaluations = 0;
  std::uint64_t bbox_rescans = 0;
  std::uint64_t expansions_legacy = 0;
  std::uint64_t expansions_selective = 0;
  double critical_path_legacy_ns = 0.0;
  double critical_path_selective_ns = 0.0;
};

template <typename F>
Timing time_ms(F&& run) {
  run();  // warm-up
  std::vector<double> ms;
  for (unsigned i = 0; i < kRepetitions; ++i) {
    const auto start = std::chrono::steady_clock::now();
    run();
    ms.push_back(
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count());
  }
  std::sort(ms.begin(), ms.end());
  return {ms[ms.size() / 2], ms.front()};
}

bool same_placement(const pnr::PlaceResult& a, const pnr::PlaceResult& b) {
  if (a.placement.size() != b.placement.size() || a.hpwl != b.hpwl) return false;
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    if (a.placement[i].x != b.placement[i].x || a.placement[i].y != b.placement[i].y ||
        a.placement[i].slot != b.placement[i].slot) {
      return false;
    }
  }
  return true;
}

bool same_routes(const pnr::RouteResult& a, const pnr::RouteResult& b) {
  if (a.routes.size() != b.routes.size()) return false;
  for (std::size_t n = 0; n < a.routes.size(); ++n) {
    if (a.routes[n].sinks.size() != b.routes[n].sinks.size()) return false;
    for (std::size_t s = 0; s < a.routes[n].sinks.size(); ++s) {
      if (a.routes[n].sinks[s].path != b.routes[n].sinks[s].path) return false;
    }
  }
  return true;
}

KernelResult bench_kernel(const std::string& name) {
  KernelResult out;
  out.name = name;

  const auto& workload = workloads::workload_by_name(name);
  const auto options = experiments::default_options();
  auto netlist = experiments::partition_netlist(workload, options);
  if (!netlist) {
    std::fprintf(stderr, "%s: %s\n", name.c_str(), netlist.message().c_str());
    std::exit(1);
  }
  const fabric::FabricGeometry geometry;  // the DPM's default fabric
  out.luts = netlist.value().luts.size();

  pnr::PlaceOptions place_legacy;
  place_legacy.incremental = false;
  pnr::PlaceOptions place_incremental;  // defaults
  pnr::RouteOptions route_legacy;
  route_legacy.selective_ripup = false;
  pnr::RouteOptions route_selective;  // defaults

  // Correctness gates before timing.
  auto placed_legacy = pnr::place(netlist.value(), geometry, place_legacy);
  auto placed_incremental = pnr::place(netlist.value(), geometry, place_incremental);
  if (!placed_legacy || !placed_incremental) {
    std::fprintf(stderr, "%s: place failed\n", name.c_str());
    std::exit(1);
  }
  out.placement_identical =
      same_placement(placed_legacy.value(), placed_incremental.value());
  out.delta_evaluations = placed_incremental.value().delta_evaluations;
  out.bbox_rescans = placed_incremental.value().bbox_rescans;

  auto routed_legacy =
      pnr::route(netlist.value(), geometry, placed_incremental.value(), route_legacy);
  auto routed_selective =
      pnr::route(netlist.value(), geometry, placed_incremental.value(), route_selective);
  if (!routed_legacy || !routed_selective) {
    std::fprintf(stderr, "%s: route failed\n", name.c_str());
    std::exit(1);
  }
  out.routes_identical = same_routes(routed_legacy.value(), routed_selective.value());
  out.route_iterations = routed_selective.value().iterations;
  out.nets_rerouted = routed_selective.value().nets_rerouted;
  out.expansions_legacy = routed_legacy.value().expansions;
  out.expansions_selective = routed_selective.value().expansions;
  out.critical_path_legacy_ns = routed_legacy.value().critical_path_ns;
  out.critical_path_selective_ns = routed_selective.value().critical_path_ns;
  out.nets = routed_selective.value().routes.size();

  out.place_legacy =
      time_ms([&] { (void)pnr::place(netlist.value(), geometry, place_legacy); });
  out.place_incremental =
      time_ms([&] { (void)pnr::place(netlist.value(), geometry, place_incremental); });
  out.route_legacy = time_ms(
      [&] { (void)pnr::route(netlist.value(), geometry, placed_incremental.value(),
                             route_legacy); });
  out.route_selective = time_ms(
      [&] { (void)pnr::route(netlist.value(), geometry, placed_incremental.value(),
                             route_selective); });

  // Per-expansion cost of the selective router: its expansion count is
  // pinned (the DPM charges it), so this is where its wall time can move.
  out.route_selective_ns_per_expansion =
      out.route_selective.median_ms * 1e6 / static_cast<double>(out.expansions_selective);
  // Ratios of medians.
  out.place_speedup = out.place_legacy.median_ms / out.place_incremental.median_ms;
  out.route_speedup = out.route_legacy.median_ms / out.route_selective.median_ms;
  out.total_speedup = (out.place_legacy.median_ms + out.route_legacy.median_ms) /
                      (out.place_incremental.median_ms + out.route_selective.median_ms);
  return out;
}

}  // namespace

int main() {
  const std::vector<std::string> kernels = {"brev", "g3fax", "canrdr",
                                            "bitmnp", "idct", "matmul"};
  std::vector<KernelResult> results;
  for (const auto& name : kernels) results.push_back(bench_kernel(name));

  const unsigned nproc = std::thread::hardware_concurrency();
  std::printf("pnr microbenchmark: exact-rescan + full rip-up vs incremental + selective\n");
  std::printf("median wall ms per call over %u repetitions (nproc %u)\n", kRepetitions, nproc);
  std::printf("%-8s %5s %5s %10s %10s %10s %10s %8s %7s %7s %7s %s\n", "kernel", "luts",
              "nets", "placeL ms", "placeI ms", "routeL ms", "routeS ms", "ns/expS", "placeX",
              "routeX", "totalX", "identical(place,route)");
  bool all_place_identical = true;
  double worst_total = 1e30;
  double sum_legacy_ms = 0.0, sum_new_ms = 0.0;
  for (const auto& r : results) {
    std::printf("%-8s %5zu %5zu %10.3f %10.3f %10.3f %10.3f %8.1f %6.2fx %6.2fx %6.2fx %s,%s\n",
                r.name.c_str(), r.luts, r.nets, r.place_legacy.median_ms,
                r.place_incremental.median_ms, r.route_legacy.median_ms,
                r.route_selective.median_ms, r.route_selective_ns_per_expansion,
                r.place_speedup, r.route_speedup,
                r.total_speedup, r.placement_identical ? "yes" : "NO",
                r.routes_identical ? "yes" : "no");
    all_place_identical = all_place_identical && r.placement_identical;
    worst_total = std::min(worst_total, r.total_speedup);
    sum_legacy_ms += r.place_legacy.median_ms + r.route_legacy.median_ms;
    sum_new_ms += r.place_incremental.median_ms + r.route_selective.median_ms;
  }
  const double aggregate_speedup = sum_legacy_ms / sum_new_ms;
  std::printf("six-kernel total: %.1f ms -> %.1f ms (%.2fx); worst single kernel %.2fx\n",
              sum_legacy_ms, sum_new_ms, aggregate_speedup, worst_total);

  FILE* json = std::fopen("BENCH_pnr.json", "w");
  if (!json) {
    std::fprintf(stderr, "cannot write BENCH_pnr.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"pnr\",\n"
               "  \"nproc\": %u,\n  \"repetitions\": %u,\n"
               "  \"total_legacy_ms\": %.4f,\n  \"total_new_ms\": %.4f,\n"
               "  \"total_speedup\": %.2f,\n  \"kernels\": [\n",
               nproc, kRepetitions, sum_legacy_ms, sum_new_ms, aggregate_speedup);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    std::fprintf(
        json,
        "    {\"name\": \"%s\", \"luts\": %zu, \"nets\": %zu,\n"
        "     \"place_legacy_ms\": %.4f, \"place_incremental_ms\": %.4f,\n"
        "     \"route_legacy_ms\": %.4f, \"route_selective_ms\": %.4f,\n"
        "     \"place_legacy_min_ms\": %.4f, \"place_incremental_min_ms\": %.4f,\n"
        "     \"route_legacy_min_ms\": %.4f, \"route_selective_min_ms\": %.4f,\n"
        "     \"place_speedup\": %.2f, \"route_speedup\": %.2f, \"total_speedup\": %.2f,\n"
        "     \"route_selective_ns_per_expansion\": %.2f,\n"
        "     \"placement_identical\": %s, \"routes_identical\": %s,\n"
        "     \"route_iterations\": %u, \"nets_rerouted\": %llu,\n"
        "     \"delta_evaluations\": %llu, \"bbox_rescans\": %llu,\n"
        "     \"expansions_legacy\": %llu, \"expansions_selective\": %llu,\n"
        "     \"critical_path_legacy_ns\": %.3f, \"critical_path_selective_ns\": %.3f}%s\n",
        r.name.c_str(), r.luts, r.nets, r.place_legacy.median_ms,
        r.place_incremental.median_ms, r.route_legacy.median_ms, r.route_selective.median_ms,
        r.place_legacy.min_ms, r.place_incremental.min_ms, r.route_legacy.min_ms,
        r.route_selective.min_ms, r.place_speedup, r.route_speedup,
        r.total_speedup, r.route_selective_ns_per_expansion,
        r.placement_identical ? "true" : "false",
        r.routes_identical ? "true" : "false", r.route_iterations,
        static_cast<unsigned long long>(r.nets_rerouted),
        static_cast<unsigned long long>(r.delta_evaluations),
        static_cast<unsigned long long>(r.bbox_rescans),
        static_cast<unsigned long long>(r.expansions_legacy),
        static_cast<unsigned long long>(r.expansions_selective),
        r.critical_path_legacy_ns, r.critical_path_selective_ns,
        i + 1 < results.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote BENCH_pnr.json\n");

  if (!all_place_identical) {
    std::fprintf(stderr, "FAIL: incremental placement diverged from exact rescan\n");
    return 1;
  }
  return 0;
}
