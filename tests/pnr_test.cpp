// Incremental place & route tests: placement determinism, incremental-vs-
// exact-rescan HPWL equivalence, selective rip-up routing regressions, the
// A* bucket queue against the heap it replaced, and pinned router and
// placer outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "experiments/harness.hpp"
#include "fabric/wcla.hpp"
#include "netlist_testutil.hpp"
#include "pnr/bucket_queue.hpp"
#include "pnr/pnr.hpp"
#include "synth/netlist.hpp"
#include "techmap/techmap.hpp"
#include "workloads/workload.hpp"

namespace warp {
namespace {

using testutil::random_netlist;

bool same_placement(const pnr::PlaceResult& a, const pnr::PlaceResult& b) {
  if (a.placement.size() != b.placement.size()) return false;
  for (std::size_t i = 0; i < a.placement.size(); ++i) {
    if (a.placement[i].x != b.placement[i].x || a.placement[i].y != b.placement[i].y ||
        a.placement[i].slot != b.placement[i].slot) {
      return false;
    }
  }
  return true;
}

TEST(Place, DeterministicForFixedSeed) {
  common::Rng rng(101);
  auto net = random_netlist(rng, 12, 150, 8);
  auto mapped = techmap::techmap(net);
  ASSERT_TRUE(mapped.is_ok());
  const auto geometry = fabric::FabricGeometry::small();
  pnr::PlaceOptions options;
  options.seed = 7;
  auto first = pnr::place(mapped.value(), geometry, options);
  auto second = pnr::place(mapped.value(), geometry, options);
  ASSERT_TRUE(first.is_ok());
  ASSERT_TRUE(second.is_ok());
  EXPECT_TRUE(same_placement(first.value(), second.value()));
  EXPECT_EQ(first.value().hpwl, second.value().hpwl);
  EXPECT_EQ(first.value().accepted_moves, second.value().accepted_moves);

  // A different seed should (for a netlist this size) anneal differently.
  options.seed = 8;
  auto third = pnr::place(mapped.value(), geometry, options);
  ASSERT_TRUE(third.is_ok());
  EXPECT_FALSE(same_placement(first.value(), third.value()));
}

// Property test: the incremental bounding-box placer must match the exact-
// rescan baseline move for move — same acceptances, same final placement,
// same cost. verify_incremental additionally cross-checks every move's
// maintained boxes and delta against a fresh endpoint scan inside place().
TEST(Place, IncrementalMatchesExactRescan) {
  common::Rng rng(2025);
  for (int trial = 0; trial < 8; ++trial) {
    auto net = random_netlist(rng, 4 + trial, 60 + 40 * trial, 4 + trial);
    auto mapped = techmap::techmap(net);
    ASSERT_TRUE(mapped.is_ok());
    const auto geometry = fabric::FabricGeometry::small();

    pnr::PlaceOptions incremental;
    incremental.seed = 3 + static_cast<std::uint64_t>(trial);
    incremental.verify_incremental = true;
    pnr::PlaceOptions rescan = incremental;
    rescan.incremental = false;

    auto inc = pnr::place(mapped.value(), geometry, incremental);
    auto exact = pnr::place(mapped.value(), geometry, rescan);
    ASSERT_TRUE(inc.is_ok()) << inc.message();  // verify mode fails on any drift
    ASSERT_TRUE(exact.is_ok());
    EXPECT_TRUE(same_placement(inc.value(), exact.value())) << "trial " << trial;
    EXPECT_EQ(inc.value().hpwl, exact.value().hpwl) << "trial " << trial;
    EXPECT_EQ(inc.value().accepted_moves, exact.value().accepted_moves);
    EXPECT_GT(inc.value().delta_evaluations, 0u);
  }
}

// High-fanout nets take the maintained-bounding-box path (small nets use a
// direct two-scan delta); build one deliberately and verify it too.
TEST(Place, IncrementalHandlesHighFanoutNets) {
  synth::GateNetlist net;
  const int a = net.add_input("a");
  const int b = net.add_input("b");
  for (int i = 0; i < 24; ++i) {
    net.add_output("o" + std::to_string(i), net.gate_xor(a, b));
  }
  auto mapped = techmap::techmap(net);
  ASSERT_TRUE(mapped.is_ok());
  const auto geometry = fabric::FabricGeometry::small();

  pnr::PlaceOptions incremental;
  incremental.verify_incremental = true;
  incremental.moves_per_lut = 200;  // plenty of shrink/grow churn
  pnr::PlaceOptions rescan = incremental;
  rescan.incremental = false;

  auto inc = pnr::place(mapped.value(), geometry, incremental);
  auto exact = pnr::place(mapped.value(), geometry, rescan);
  ASSERT_TRUE(inc.is_ok()) << inc.message();
  ASSERT_TRUE(exact.is_ok());
  EXPECT_TRUE(same_placement(inc.value(), exact.value()));
  EXPECT_EQ(inc.value().hpwl, exact.value().hpwl);
  // The two 25-endpoint input nets must actually exercise the box scheme.
  EXPECT_GT(inc.value().bbox_rescans, 0u);
}

// Count how many nets pass through each fabric cell (IO columns excluded),
// mirroring the router's usage bookkeeping: one unit per net per distinct
// cell of its routed tree, the driver's own cell exempt.
std::map<std::pair<int, int>, int> cell_usage(const pnr::PnrResult& result) {
  std::map<std::pair<int, int>, int> usage;
  for (const auto& routed : result.route.routes) {
    std::pair<int, int> source;
    if (routed.driver_lut >= 0) {
      const auto& site = result.place.placement[static_cast<std::size_t>(routed.driver_lut)];
      source = {site.x, site.y};
    } else {
      const auto& site = result.place.input_pads[static_cast<std::size_t>(routed.driver_input)];
      source = {site.x, site.y};
    }
    std::set<std::pair<int, int>> cells;
    for (const auto& sink : routed.sinks) {
      for (const auto& cell : sink.path) cells.insert(cell);
    }
    cells.erase(source);
    for (const auto& cell : cells) ++usage[cell];
  }
  return usage;
}

// Regression: on a congested grid the selective rip-up router must still
// converge to a legal (no overuse) solution, and must actually exercise the
// rip-up path rather than rerouting everything.
// A random netlist on a small fabric with a tight channel capacity, which
// forces congestion iterations.
struct CongestedCase {
  techmap::LutNetlist netlist;
  fabric::FabricGeometry geometry;
  pnr::PnrOptions options;
};

CongestedCase congested_case() {
  common::Rng rng(17);
  auto mapped = techmap::techmap(random_netlist(rng, 10, 80, 6));
  CongestedCase out{std::move(mapped).value(), fabric::FabricGeometry::small(), {}};
  out.geometry.channel_capacity = 3;
  out.options.route.max_iterations = 32;
  return out;
}

TEST(Route, SelectiveRipupConvergesOnCongestedGrid) {
  const CongestedCase congested = congested_case();
  const auto& geometry = congested.geometry;
  auto result = pnr::place_and_route(congested.netlist, geometry, congested.options);
  ASSERT_TRUE(result.is_ok()) << result.message();
  const auto& route = result.value().route;
  EXPECT_TRUE(route.success);
  EXPECT_GT(route.iterations, 1u);
  EXPECT_GT(route.nets_rerouted, 0u);
  ASSERT_EQ(route.nets_rerouted_per_iter.size(), route.iterations);
  // Selective rip-up: later iterations touch a strict subset of the nets.
  EXPECT_LT(route.nets_rerouted_per_iter[1], route.nets_rerouted_per_iter[0]);

  // Legality: no non-IO cell carries more nets than the channel capacity.
  for (const auto& [cell, count] : cell_usage(result.value())) {
    if (cell.first < 0 || cell.first >= static_cast<int>(geometry.width)) continue;
    EXPECT_LE(count, static_cast<int>(geometry.channel_capacity))
        << "overused cell (" << cell.first << "," << cell.second << ")";
  }

  // Every sink still gets a connected, grid-adjacent path.
  for (const auto& routed : route.routes) {
    for (const auto& sink : routed.sinks) {
      ASSERT_FALSE(sink.path.empty());
      for (std::size_t i = 1; i < sink.path.size(); ++i) {
        const int dx = std::abs(sink.path[i].first - sink.path[i - 1].first);
        const int dy = std::abs(sink.path[i].second - sink.path[i - 1].second);
        EXPECT_EQ(dx + dy, 1);
      }
    }
  }
}

// On an uncongested fabric both routers converge in one iteration and must
// produce bit-identical routes and expansion counts (the DPM time model
// charges per expansion).
TEST(Route, SelectiveMatchesFullRipupWhenUncongested) {
  common::Rng rng(23);
  auto net = random_netlist(rng, 10, 100, 6);
  auto mapped = techmap::techmap(net);
  ASSERT_TRUE(mapped.is_ok());
  const auto geometry = fabric::FabricGeometry::small();
  auto placed = pnr::place(mapped.value(), geometry);
  ASSERT_TRUE(placed.is_ok());

  pnr::RouteOptions selective;
  pnr::RouteOptions full;
  full.selective_ripup = false;
  auto a = pnr::route(mapped.value(), geometry, placed.value(), selective);
  auto b = pnr::route(mapped.value(), geometry, placed.value(), full);
  ASSERT_TRUE(a.is_ok()) << a.message();
  ASSERT_TRUE(b.is_ok()) << b.message();
  ASSERT_EQ(a.value().iterations, 1u);
  EXPECT_EQ(a.value().expansions, b.value().expansions);
  EXPECT_EQ(a.value().critical_path_ns, b.value().critical_path_ns);
  ASSERT_EQ(a.value().routes.size(), b.value().routes.size());
  for (std::size_t n = 0; n < a.value().routes.size(); ++n) {
    const auto& ra = a.value().routes[n];
    const auto& rb = b.value().routes[n];
    ASSERT_EQ(ra.sinks.size(), rb.sinks.size());
    for (std::size_t s = 0; s < ra.sinks.size(); ++s) {
      EXPECT_EQ(ra.sinks[s].path, rb.sinks[s].path);
    }
  }
}

// ---------------------------------------------------------------------------
// BucketQueue: the selective router's A* open list must pop in exactly the
// order of the heap it replaced, or routes and expansion counts would drift.
// ---------------------------------------------------------------------------
using HeapEntry = std::pair<double, int>;
using Heap = std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>>;

bool has_f(const std::set<HeapEntry>& live, double f) {
  const auto it = live.lower_bound({f, std::numeric_limits<int>::min()});
  return it != live.end() && it->first == f;
}

// Seeded random push/pop/clear sequences against std::priority_queue. The
// f values cluster on a few bases and their one-ulp neighbours (exact ties
// across many cells, and near-ties), some pushes go below the current
// minimum, cells recur under different f (the router's stale entries), and
// clear() runs with buckets still live. Grid sizes cover two leaf words
// (70), the default fabric (66 x 40 = 2640) and more than one summary word
// (5000); each ends in a partial leaf word.
TEST(BucketQueue, PopsInHeapOrder) {
  const double inf = std::numeric_limits<double>::infinity();
  std::uint64_t below_min = 0, stale = 0, live_clears = 0, ulp_pairs = 0, pops = 0;
  for (const int cells : {70, 2640, 5000}) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      common::Rng rng(seed * 1000 + static_cast<std::uint64_t>(cells));
      std::vector<double> fs;
      for (int i = 0; i < 5; ++i) {
        const double base = 8.0 + 0.25 * rng.below(40);
        fs.push_back(base);
        fs.push_back(std::nextafter(base, inf));
        fs.push_back(std::nextafter(base, -inf));
      }
      // Odd seeds draw from the grid's last dozen cells: many stale-entry
      // pairs, partly in the partial last leaf word.
      const int first_cell = (seed % 2) ? cells - 12 : 0;

      pnr::BucketQueue queue(cells);
      Heap heap;
      std::set<HeapEntry> live;             // the queue rejects identical pairs
      std::map<int, int> live_per_cell;
      for (int op = 0; op < 3000; ++op) {
        const unsigned r = rng.below(100);
        if (r < 55 || heap.empty()) {
          double f = fs[rng.below(static_cast<std::uint32_t>(fs.size()))];
          if (r < 6 && !heap.empty()) {
            f = (r % 2) ? std::nextafter(heap.top().first, -inf) : heap.top().first - 1.5;
            ++below_min;
          }
          const auto span = static_cast<std::uint32_t>(cells - first_cell);
          const int cell = (r == 7) ? cells - 1 : first_cell + static_cast<int>(rng.below(span));
          if (!live.insert({f, cell}).second) continue;
          if (live_per_cell[cell]++ > 0) ++stale;
          if (has_f(live, std::nextafter(f, inf)) || has_f(live, std::nextafter(f, -inf))) {
            ++ulp_pairs;
          }
          queue.push(f, cell);
          heap.push({f, cell});
        } else if (r < 98) {
          ASSERT_FALSE(queue.empty());
          const HeapEntry got = queue.pop();
          ASSERT_EQ(got, heap.top()) << "cells " << cells << " seed " << seed << " op " << op;
          heap.pop();
          live.erase(got);
          --live_per_cell[got.second];
          ++pops;
        } else {
          if (!heap.empty()) ++live_clears;
          queue.clear();
          heap = Heap();
          live.clear();
          live_per_cell.clear();
        }
        ASSERT_EQ(queue.empty(), heap.empty());
      }
      while (!heap.empty()) {
        ASSERT_EQ(queue.pop(), heap.top());
        heap.pop();
      }
      EXPECT_TRUE(queue.empty());
    }
  }
  // The sequences really hit every case named above.
  EXPECT_GT(below_min, 100u);
  EXPECT_GT(stale, 100u);
  EXPECT_GT(live_clears, 20u);
  EXPECT_GT(ulp_pairs, 10u);
  EXPECT_GT(pops, 10000u);

  // Congestion-shaped streams, as A* makes them once present and history
  // costs are non-integer: each pop pushes up to four keys at the popped f
  // plus a sum of fractional steps, summed in varying order so that keys
  // which would be equal in exact arithmetic differ in their last bits.
  // Mixed in: long runs of one f over many cells, pushes between the last
  // pop and the current minimum, pushes below the last pop, and clear()
  // with a search half done.
  const double steps[] = {0.05, 0.1, 0.15, 0.25, 0.35, 0.6, 1.0, 1.2, 1.8};
  std::uint64_t near_unique = 0, run_pushes = 0, under_min = 0, under_pop = 0;
  std::uint64_t search_clears = 0, congested_pops = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    common::Rng rng(seed * 7919);
    const int cells = 2640;
    pnr::BucketQueue queue(cells);
    Heap heap;
    std::set<HeapEntry> live;
    double last_pop = 10.0;
    auto push = [&](double f, int cell) {
      if (!live.insert({f, cell}).second) return false;
      queue.push(f, cell);
      heap.push({f, cell});
      return true;
    };
    for (int op = 0; op < 4000; ++op) {
      const unsigned r = rng.below(100);
      if (r < 45 || heap.empty()) {
        const int pushes = 1 + static_cast<int>(rng.below(4));
        for (int k = 0; k < pushes; ++k) {
          const double a = steps[rng.below(9)];
          const double b = steps[rng.below(9)];
          const double c = steps[rng.below(9)];
          const double f = (rng.below(2) ? (last_pop + a) + (b + c) : ((last_pop + c) + b) + a);
          const bool above_min = heap.empty() || f > heap.top().first;
          if (push(f, static_cast<int>(rng.below(cells))) && above_min && f != std::floor(f)) {
            ++near_unique;
          }
        }
      } else if (r < 50) {
        const double f = last_pop + static_cast<double>(rng.below(4));
        const int run = 32 + static_cast<int>(rng.below(160));
        for (int k = 0; k < run; ++k) run_pushes += push(f, static_cast<int>(rng.below(cells)));
      } else if (r < 53 && !heap.empty()) {
        // Between the last pop and the minimum, then below the last pop.
        const double min = heap.top().first;
        const double f =
            r < 52 ? last_pop + 0.5 * (min - last_pop) : last_pop - steps[rng.below(9)];
        if (push(f, static_cast<int>(rng.below(cells))) && f < min) {
          ++under_min;
          if (f < last_pop) ++under_pop;
        }
      } else if (r < 99) {
        if (heap.empty()) continue;
        const HeapEntry got = queue.pop();
        ASSERT_EQ(got, heap.top()) << "seed " << seed << " op " << op;
        heap.pop();
        live.erase(got);
        last_pop = got.first;
        ++congested_pops;
      } else {
        if (!heap.empty()) ++search_clears;
        queue.clear();
        heap = Heap();
        live.clear();
        last_pop = 10.0 + static_cast<double>(rng.below(20));
      }
      ASSERT_EQ(queue.empty(), heap.empty());
    }
    while (!heap.empty()) {
      ASSERT_EQ(queue.pop(), heap.top());
      heap.pop();
    }
    EXPECT_TRUE(queue.empty());
  }
  EXPECT_GT(near_unique, 10000u);
  EXPECT_GT(run_pushes, 10000u);
  EXPECT_GT(under_min, 300u);
  EXPECT_GT(under_pop, 200u);
  EXPECT_GT(search_clears, 200u);
  EXPECT_GT(congested_pops, 15000u);
}

// A heap pops a repeated identical (f, cell) twice; a bitset would merge
// it. The queue rejects the repeat instead, and stays intact.
TEST(BucketQueue, RejectsIdenticalPush) {
  pnr::BucketQueue queue(2640);
  queue.push(3.0, 7);
  queue.push(3.0, 9);
  queue.push(2.0, 7);  // same cell, different f: a legal stale entry
  EXPECT_THROW(queue.push(3.0, 7), common::InternalError);
  EXPECT_EQ(queue.pop(), HeapEntry(2.0, 7));
  EXPECT_EQ(queue.pop(), HeapEntry(3.0, 7));
  // (3.0, 9) now sits at the minimum; a repeat of it is rejected too.
  EXPECT_THROW(queue.push(3.0, 9), common::InternalError);
  // Once popped, the pair may be pushed again.
  queue.push(3.0, 7);
  EXPECT_EQ(queue.pop(), HeapEntry(3.0, 7));
  EXPECT_EQ(queue.pop(), HeapEntry(3.0, 9));
  EXPECT_TRUE(queue.empty());
}

// ---------------------------------------------------------------------------
// Pinned selective-router outputs. The DPM time model charges every A*
// expansion, so any change to the router's search order moves dpm_seconds
// and the paper figures; these values come from the heap-based router and
// must only change on purpose.
// ---------------------------------------------------------------------------
struct RouteSignature {
  std::uint64_t expansions = 0;
  unsigned iterations = 0;
  std::uint64_t nets_rerouted = 0;
  unsigned max_hops = 0;
  double critical_path_ns = 0.0;
  std::string path_digest;
};

RouteSignature signature(const pnr::RouteResult& route) {
  common::Hasher h;
  for (const auto& routed : route.routes) {
    h.u64(routed.sinks.size());
    for (const auto& sink : routed.sinks) {
      h.u64(sink.path.size());
      for (const auto& [x, y] : sink.path) h.i32(x).i32(y);
    }
  }
  return {route.expansions, route.iterations, route.nets_rerouted, route.max_hops,
          route.critical_path_ns, h.finish().to_string()};
}

void expect_signature(const std::string& name, const pnr::RouteResult& route,
                      const RouteSignature& pinned) {
  const RouteSignature got = signature(route);
  // On a mismatch, print the observed row ready to paste.
  SCOPED_TRACE(common::format("{\"%s\", {%lluu, %uu, %lluu, %uu, %.17g, \"%s\"}}", name.c_str(),
                              static_cast<unsigned long long>(got.expansions), got.iterations,
                              static_cast<unsigned long long>(got.nets_rerouted), got.max_hops,
                              got.critical_path_ns, got.path_digest.c_str()));
  EXPECT_EQ(got.expansions, pinned.expansions);
  EXPECT_EQ(got.iterations, pinned.iterations);
  EXPECT_EQ(got.nets_rerouted, pinned.nets_rerouted);
  EXPECT_EQ(got.max_hops, pinned.max_hops);
  EXPECT_EQ(got.critical_path_ns, pinned.critical_path_ns);
  EXPECT_EQ(got.path_digest, pinned.path_digest);
}

TEST(Route, PinnedCountersOnPaperKernels) {
  const std::vector<std::pair<std::string, RouteSignature>> pinned = {
      {"brev", {44032u, 1u, 0u, 103u, 37.25, "842f5064a8058ccf:1b910c1e07dc0a58"}},
      {"g3fax", {7656u, 1u, 0u, 92u, 33.399999999999999, "dade285a047937df:dbf4b1b22c9c88b2"}},
      {"canrdr", {26141u, 1u, 0u, 77u, 73.300000000000011, "14f292f819eaea5a:3c18196b50b84dfb"}},
      {"bitmnp", {10388u, 1u, 0u, 74u, 31.849999999999998, "749fbe5b897b7c85:9aa18474428bf191"}},
      {"idct", {757441u, 3u, 2420u, 107u, 207.94999999999999, "a106bc5f42b94666:a6b192af7a65778b"}},
      {"matmul", {45096u, 1u, 0u, 85u, 30.949999999999999, "4f26e206fdf2729f:79be64e51129ff94"}},
  };
  const auto options = experiments::default_options();
  const fabric::FabricGeometry geometry;  // the DPM's default fabric
  for (const auto& [name, expected] : pinned) {
    auto netlist = experiments::partition_netlist(workloads::workload_by_name(name), options);
    ASSERT_TRUE(netlist.is_ok()) << name << ": " << netlist.message();
    auto result = pnr::place_and_route(netlist.value(), geometry);
    ASSERT_TRUE(result.is_ok()) << name << ": " << result.message();
    expect_signature(name, result.value().route, expected);
  }
}

TEST(Route, PinnedCountersOnCongestedGrid) {
  const CongestedCase congested = congested_case();
  auto result = pnr::place_and_route(congested.netlist, congested.geometry, congested.options);
  ASSERT_TRUE(result.is_ok()) << result.message();
  expect_signature("congested", result.value().route,
                   {2094u, 9u, 86u, 22u, 12.35, "050c9a956ca769f5:861814f448e45639"});
}


// ---------------------------------------------------------------------------
// Pinned placements. The annealer's counters feed content_hash(PnrResult),
// the bitstream stage's cache key, and its moves are charged as DPM cycles,
// so any drift in the move loop silently re-keys every stored artifact.
// These values come from the pre-flattening annealer and must only change on
// purpose.
// ---------------------------------------------------------------------------
struct PlaceSignature {
  double hpwl = 0.0;
  std::uint64_t moves = 0;
  std::uint64_t accepted_moves = 0;
  std::uint64_t delta_evaluations = 0;
  std::uint64_t bbox_rescans = 0;
  std::string site_digest;
};

PlaceSignature signature(const pnr::PlaceResult& place) {
  common::Hasher h;
  for (const auto* sites : {&place.placement, &place.input_pads, &place.output_pads}) {
    h.u64(sites->size());
    for (const auto& site : *sites) h.i32(site.x).i32(site.y).u32(site.slot);
  }
  return {place.hpwl, place.moves, place.accepted_moves, place.delta_evaluations,
          place.bbox_rescans, h.finish().to_string()};
}

void expect_signature(const std::string& name, const pnr::PlaceResult& place,
                      const PlaceSignature& pinned) {
  const PlaceSignature got = signature(place);
  // On a mismatch, print the observed row ready to paste.
  SCOPED_TRACE(common::format("{\"%s\", {%.17g, %lluu, %lluu, %lluu, %lluu, \"%s\"}}",
                              name.c_str(), got.hpwl, static_cast<unsigned long long>(got.moves),
                              static_cast<unsigned long long>(got.accepted_moves),
                              static_cast<unsigned long long>(got.delta_evaluations),
                              static_cast<unsigned long long>(got.bbox_rescans),
                              got.site_digest.c_str()));
  EXPECT_EQ(got.hpwl, pinned.hpwl);
  EXPECT_EQ(got.moves, pinned.moves);
  EXPECT_EQ(got.accepted_moves, pinned.accepted_moves);
  EXPECT_EQ(got.delta_evaluations, pinned.delta_evaluations);
  EXPECT_EQ(got.bbox_rescans, pinned.bbox_rescans);
  EXPECT_EQ(got.site_digest, pinned.site_digest);
}

TEST(Place, PinnedOnPaperKernels) {
  const std::vector<std::pair<std::string, PlaceSignature>> pinned = {
      {"brev", {2720, 0u, 0u, 0u, 0u, "afb3a0aa7cb6ec1b:a0253211518657b0"}},
      {"g3fax", {628, 0u, 0u, 0u, 0u, "446c51ba19a1e330:17e1f55c75e495c6"}},
      {"canrdr", {4026, 1464u, 108u, 4202u, 0u, "27b28555933d4603:e35d3ed4f45a6aed"}},
      {"bitmnp", {2549, 1368u, 27u, 4854u, 0u, "57f1378f8e8e58b1:517f939458b8a2fe"}},
      {"idct", {80156, 64288u, 656u, 337763u, 169u, "b3ed60e5133ffd04:dfd86e99936e055e"}},
      {"matmul", {4784, 0u, 0u, 0u, 0u, "66b72ded066a22d5:ac4b061b9c38c2b5"}},
  };
  const auto options = experiments::default_options();
  const fabric::FabricGeometry geometry;  // the DPM's default fabric
  for (const auto& [name, expected] : pinned) {
    auto netlist = experiments::partition_netlist(workloads::workload_by_name(name), options);
    ASSERT_TRUE(netlist.is_ok()) << name << ": " << netlist.message();
    auto result = pnr::place(netlist.value(), geometry);
    ASSERT_TRUE(result.is_ok()) << name << ": " << result.message();
    expect_signature(name, result.value(), expected);
  }
}

TEST(Place, PinnedOnCongestedGrid) {
  const CongestedCase congested = congested_case();
  auto result = pnr::place(congested.netlist, congested.geometry, congested.options.place);
  ASSERT_TRUE(result.is_ok()) << result.message();
  expect_signature("congested", result.value(),
                   {174, 359u, 67u, 1451u, 0u, "5bf81d729a736422:f5ead41aa815ea03"});
}
}  // namespace
}  // namespace warp
