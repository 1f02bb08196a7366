#include <algorithm>
#include <cmath>

#include "pnr/pnr.hpp"

#include "common/strings.hpp"

namespace warp::pnr {
namespace {

using fabric::FabricGeometry;
using fabric::LutSite;
using techmap::LutNetlist;
using techmap::NetRef;

// Maintained bounding box of one net (the VPR scheme): the four extremes
// plus how many endpoints sit on each extreme. The counts make most moves
// O(1): an endpoint leaving an extreme with count > 1 just decrements, and
// only a shrink off a *unique* extreme forces a full endpoint rescan.
struct NetBox {
  int min_x = 0, max_x = 0, min_y = 0, max_y = 0;
  int cnt_min_x = 0, cnt_max_x = 0, cnt_min_y = 0, cnt_max_y = 0;

  double hpwl() const { return static_cast<double>((max_x - min_x) + (max_y - min_y)); }
};

struct Pos {
  int x;
  int y;
};

// One net of a LUT, with how many of the net's endpoints are that LUT.
struct NetUse {
  int net;
  int mult;
};

LutSite site_of_slot(const FabricGeometry& g, int slot) {
  const unsigned per_col = g.height * g.luts_per_clb;
  LutSite site;
  site.x = static_cast<int>(static_cast<unsigned>(slot) / per_col);
  const unsigned rem = static_cast<unsigned>(slot) % per_col;
  site.y = static_cast<int>(rem / g.luts_per_clb);
  site.slot = rem % g.luts_per_clb;
  return site;
}

constexpr int kPad = -1;    // Endpoint::lut of a fixed pad
constexpr int kNoLut = -2;  // Move::other when the target slot is free

// A net endpoint as the move loop reads it: the LUT it belongs to (kPad for
// a fixed pad) and where it sits now.
struct Endpoint {
  int lut;
  Pos at;
};

// A proposed move: `lut` goes from slot `from` to slot `to`, and the LUT
// in `to` (`other`, or kNoLut) goes the other way.
struct Move {
  int lut;
  int other;
  int from;
  int to;
  Pos lut_to;
  Pos other_to;

  Pos after(const Endpoint& e) const {
    return e.lut == lut ? lut_to : e.lut == other ? other_to : e.at;
  }
  Move reversed() const { return {lut, other, to, from, other_to, lut_to}; }
};

Pos now(const Endpoint& e) { return e.at; }

// Nets at or below this endpoint count skip the box machinery entirely: a
// direct two-scan delta is as cheap as the O(1) update for a handful of
// endpoints, and it sidesteps the count scheme's degenerate case (every
// endpoint of a 2-pin net is a unique extreme, so almost every move would
// force a rescan anyway).
constexpr std::size_t kSmallNetEndpoints = 8;

// Annealer state, flat for the move loop. Every net's endpoints sit
// together in `ends` with their current coordinates, and each LUT knows its
// nets and its endpoint entries, so a move reads contiguous memory. Most
// moves are rejected, and a rejected move writes nothing but the boxes it
// restores: a move's delta is read from the endpoints as they will be
// (Move::after), and only commit() moves anything.
struct PlacerState {
  std::vector<Endpoint> ends;
  std::vector<std::uint32_t> net_begin;     // net n: ends[net_begin[n], net_begin[n + 1])
  std::vector<std::uint32_t> lut_begin;     // LUT i: lut_nets[lut_begin[i], lut_begin[i + 1])
  std::vector<NetUse> lut_nets;             // ascending net per LUT
  std::vector<std::uint32_t> lut_end_begin; // LUT i: lut_ends[lut_end_begin[i], ...[i + 1])
  std::vector<std::uint32_t> lut_ends;      // indices into ends
  std::vector<int> lut_slot;                // lut -> slot index
  std::vector<int> slot_lut;                // slot -> lut (-1 free)
  std::vector<Pos> slot_pos;                // slot -> site coords
  std::vector<NetBox> boxes;

  std::size_t net_count() const { return net_begin.size() - 1; }
  const NetUse* nets_begin(int lut) const {
    return lut_nets.data() + lut_begin[static_cast<std::size_t>(lut)];
  }
  const NetUse* nets_end(int lut) const {
    return lut_nets.data() + lut_begin[static_cast<std::size_t>(lut) + 1];
  }
  // Big nets keep a maintained NetBox.
  bool boxed(std::size_t n) const { return net_begin[n + 1] - net_begin[n] > kSmallNetEndpoints; }

  // HPWL of net n with each endpoint at at(endpoint).
  template <typename At>
  double net_hpwl(std::size_t n, At at) const {
    int min_x = 1 << 30, max_x = -(1 << 30), min_y = 1 << 30, max_y = -(1 << 30);
    for (std::uint32_t k = net_begin[n]; k < net_begin[n + 1]; ++k) {
      const Pos p = at(ends[k]);
      min_x = std::min(min_x, p.x);
      max_x = std::max(max_x, p.x);
      min_y = std::min(min_y, p.y);
      max_y = std::max(max_y, p.y);
    }
    return static_cast<double>((max_x - min_x) + (max_y - min_y));
  }

  // Exact bbox + extreme counts with each endpoint at at(endpoint).
  template <typename At>
  NetBox scan_box(std::size_t n, At at) const {
    NetBox box;
    box.min_x = box.min_y = 1 << 30;
    box.max_x = box.max_y = -(1 << 30);
    for (std::uint32_t k = net_begin[n]; k < net_begin[n + 1]; ++k) {
      const auto [x, y] = at(ends[k]);
      if (x < box.min_x) { box.min_x = x; box.cnt_min_x = 1; }
      else if (x == box.min_x) ++box.cnt_min_x;
      if (x > box.max_x) { box.max_x = x; box.cnt_max_x = 1; }
      else if (x == box.max_x) ++box.cnt_max_x;
      if (y < box.min_y) { box.min_y = y; box.cnt_min_y = 1; }
      else if (y == box.min_y) ++box.cnt_min_y;
      if (y > box.max_y) { box.max_y = y; box.cnt_max_y = 1; }
      else if (y == box.max_y) ++box.cnt_max_y;
    }
    return box;
  }

  Move propose(int lut, int to) const {
    const int from = lut_slot[static_cast<std::size_t>(lut)];
    const int other = slot_lut[static_cast<std::size_t>(to)];
    return {lut, other >= 0 ? other : kNoLut, from, to, slot_pos[static_cast<std::size_t>(to)],
            slot_pos[static_cast<std::size_t>(from)]};
  }

  void place_lut(int lut, int slot) {
    lut_slot[static_cast<std::size_t>(lut)] = slot;
    slot_lut[static_cast<std::size_t>(slot)] = lut;
    for (std::uint32_t k = lut_end_begin[static_cast<std::size_t>(lut)];
         k < lut_end_begin[static_cast<std::size_t>(lut) + 1]; ++k) {
      ends[lut_ends[k]].at = slot_pos[static_cast<std::size_t>(slot)];
    }
  }

  void commit(const Move& m) {
    place_lut(m.lut, m.to);
    if (m.other >= 0) place_lut(m.other, m.from);
    else slot_lut[static_cast<std::size_t>(m.from)] = -1;
  }
};


// One axis of the incremental update: an endpoint moved from `from` to `to`.
// Returns false when the box must be rescanned (shrink off a unique extreme).
bool move_axis(int from, int to, int& mn, int& mx, int& cnt_mn, int& cnt_mx) {
  if (from == to) return true;
  // Add `to`.
  if (to < mn) { mn = to; cnt_mn = 1; }
  else if (to == mn) ++cnt_mn;
  if (to > mx) { mx = to; cnt_mx = 1; }
  else if (to == mx) ++cnt_mx;
  // Remove `from`.
  if (from == mn) {
    if (cnt_mn == 1) return false;
    --cnt_mn;
  }
  if (from == mx) {
    if (cnt_mx == 1) return false;
    --cnt_mx;
  }
  return true;
}

// Pads distributed along the left (inputs) and right (outputs) IO columns.
LutSite input_pad_site(std::size_t index, std::size_t total, const FabricGeometry& g) {
  LutSite site;
  site.x = -1;
  site.y = static_cast<int>((index * g.height) / std::max<std::size_t>(total, 1));
  site.slot = 0;
  return site;
}

LutSite output_pad_site(std::size_t index, std::size_t total, const FabricGeometry& g) {
  LutSite site;
  site.x = static_cast<int>(g.width);
  site.y = static_cast<int>((index * g.height) / std::max<std::size_t>(total, 1));
  site.slot = 0;
  return site;
}

}  // namespace

common::Result<PlaceResult> place(const LutNetlist& netlist, const FabricGeometry& geometry,
                                  const PlaceOptions& options) {
  if (netlist.luts.size() > geometry.lut_capacity()) {
    return common::Result<PlaceResult>::error(common::format(
        "design needs %zu LUTs, fabric has %u", netlist.luts.size(), geometry.lut_capacity()));
  }

  PlacerState st;
  const std::size_t num_luts = netlist.luts.size();

  // Pads.
  std::vector<LutSite> input_pads;
  std::vector<LutSite> output_pads;
  for (std::size_t i = 0; i < netlist.primary_inputs.size(); ++i) {
    input_pads.push_back(input_pad_site(i, netlist.primary_inputs.size(), geometry));
  }
  for (std::size_t i = 0; i < netlist.outputs.size(); ++i) {
    output_pads.push_back(output_pad_site(i, netlist.outputs.size(), geometry));
  }
  auto pad = [](const LutSite& site) { return Endpoint{kPad, {site.x, site.y}}; };

  // Nets: one per driver (LUT or primary input) with its sinks.
  std::vector<std::vector<Endpoint>> nets;
  std::vector<int> net_of_lut_driver(num_luts, -1);
  std::vector<int> net_of_pi_driver(netlist.primary_inputs.size(), -1);
  auto net_for_driver = [&](const NetRef& ref) -> int {
    if (ref.kind == NetRef::Kind::kLut) {
      int& id = net_of_lut_driver[static_cast<std::size_t>(ref.index)];
      if (id < 0) {
        id = static_cast<int>(nets.size());
        nets.push_back({Endpoint{ref.index, {}}});
      }
      return id;
    }
    if (ref.kind == NetRef::Kind::kPrimaryInput) {
      int& id = net_of_pi_driver[static_cast<std::size_t>(ref.index)];
      if (id < 0) {
        id = static_cast<int>(nets.size());
        nets.push_back({pad(input_pads[static_cast<std::size_t>(ref.index)])});
      }
      return id;
    }
    return -1;  // constants need no routing
  };

  for (std::size_t i = 0; i < num_luts; ++i) {
    for (unsigned k = 0; k < netlist.luts[i].num_inputs; ++k) {
      const int net = net_for_driver(netlist.luts[i].inputs[k]);
      if (net >= 0) nets[static_cast<std::size_t>(net)].push_back({static_cast<int>(i), {}});
    }
  }
  for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
    const int net = net_for_driver(netlist.outputs[o].source);
    if (net >= 0) nets[static_cast<std::size_t>(net)].push_back(pad(output_pads[o]));
  }

  // Flatten the nets, then index each LUT's nets (ascending, since nets are
  // visited in order, with multiplicity) and endpoint entries.
  std::vector<std::vector<NetUse>> uses(num_luts);
  std::vector<std::vector<std::uint32_t>> entries(num_luts);
  st.net_begin.push_back(0);
  for (std::size_t n = 0; n < nets.size(); ++n) {
    for (const Endpoint& e : nets[n]) {
      if (e.lut >= 0) {
        auto& list = uses[static_cast<std::size_t>(e.lut)];
        if (!list.empty() && list.back().net == static_cast<int>(n)) ++list.back().mult;
        else list.push_back({static_cast<int>(n), 1});
        entries[static_cast<std::size_t>(e.lut)].push_back(
            static_cast<std::uint32_t>(st.ends.size()));
      }
      st.ends.push_back(e);
    }
    st.net_begin.push_back(static_cast<std::uint32_t>(st.ends.size()));
  }
  st.lut_begin.push_back(0);
  st.lut_end_begin.push_back(0);
  for (std::size_t i = 0; i < num_luts; ++i) {
    st.lut_nets.insert(st.lut_nets.end(), uses[i].begin(), uses[i].end());
    st.lut_begin.push_back(static_cast<std::uint32_t>(st.lut_nets.size()));
    st.lut_ends.insert(st.lut_ends.end(), entries[i].begin(), entries[i].end());
    st.lut_end_begin.push_back(static_cast<std::uint32_t>(st.lut_ends.size()));
  }

  // Constructive seed: LUTs in topological (id) order, column-major sweep
  // from the input edge — drivers end up left of their sinks.
  const std::size_t slots = geometry.lut_capacity();
  st.slot_pos.resize(slots);
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const LutSite site = site_of_slot(geometry, static_cast<int>(slot));
    st.slot_pos[slot] = {site.x, site.y};
  }
  st.lut_slot.assign(num_luts, -1);
  st.slot_lut.assign(slots, -1);
  for (std::size_t i = 0; i < num_luts; ++i) {
    st.place_lut(static_cast<int>(i), static_cast<int>(i));
  }

  double cost = 0.0;
  st.boxes.resize(st.net_count());
  for (std::size_t n = 0; n < st.net_count(); ++n) {
    if (st.boxed(n)) st.boxes[n] = st.scan_box(n, now);
    cost += st.net_hpwl(n, now);
  }

  // Simulated annealing.
  common::Rng rng(options.seed);
  PlaceResult result;
  const std::uint64_t total_moves =
      static_cast<std::uint64_t>(options.moves_per_lut) * std::max<std::size_t>(num_luts, 1);
  double temperature = options.initial_temperature;
  const std::uint64_t moves_per_stage = std::max<std::uint64_t>(total_moves / 40, 1);
  // Cooling follows every moves_per_stage-th draw, skipped draws included.
  std::uint64_t stage_left = moves_per_stage;

  // Scratch for moves, reused across the annealing loop. The stamp arrays
  // give O(1) "seen this move?" checks without clearing.
  std::vector<int> affected;                        // exact-rescan baseline
  std::vector<std::pair<int, NetBox>> saved_boxes;  // big-net undo log for one move
  std::vector<int> affected_small;                  // small nets touched this move
  std::vector<std::uint64_t> net_saved_stamp(st.net_count(), 0);
  std::vector<std::uint64_t> net_done_stamp(st.net_count(), 0);  // rescanned early

  for (std::uint64_t move = 0; move < total_moves && num_luts > 0; ++move) {
    const bool stage_end = --stage_left == 0;
    if (stage_end) stage_left = moves_per_stage;
    const int lut = static_cast<int>(rng.below(static_cast<std::uint32_t>(num_luts)));
    const int new_slot = static_cast<int>(rng.below(static_cast<std::uint32_t>(slots)));
    if (new_slot == st.lut_slot[static_cast<std::size_t>(lut)]) continue;
    const Move m = st.propose(lut, new_slot);
    const auto after_move = [&m](const Endpoint& e) { return m.after(e); };

    double delta = 0.0;
    ++result.moves;

    if (!options.incremental) {
      // Exact-rescan baseline: recompute each affected net's HPWL from its
      // endpoints before and after the move.
      affected.clear();
      for (const NetUse* u = st.nets_begin(lut); u != st.nets_end(lut); ++u) {
        affected.push_back(u->net);
      }
      if (m.other >= 0) {
        for (const NetUse* u = st.nets_begin(m.other); u != st.nets_end(m.other); ++u) {
          affected.push_back(u->net);
        }
        std::sort(affected.begin(), affected.end());
        affected.erase(std::unique(affected.begin(), affected.end()), affected.end());
      }
      double before = 0.0;
      for (int n : affected) before += st.net_hpwl(static_cast<std::size_t>(n), now);

      st.commit(m);

      double after = 0.0;
      for (int n : affected) after += st.net_hpwl(static_cast<std::size_t>(n), now);
      delta = after - before;

      const bool accept = delta <= 0.0 || rng.chance(std::exp(-delta / temperature));
      if (accept) {
        cost += delta;
        ++result.accepted_moves;
      } else {
        st.commit(m.reversed());
      }
      if (stage_end) temperature *= options.cooling;
      continue;
    }

    // Incremental path. Small nets (the overwhelming majority) get a direct
    // two-scan delta — for a handful of endpoints that is as cheap as any
    // bookkeeping — while big nets use the maintained bounding boxes with
    // O(1) updates. Both read the endpoints as the move would leave them,
    // so nothing moves until the move is accepted.
    const std::uint64_t stamp = result.moves;
    double before = 0.0;
    double after = 0.0;
    saved_boxes.clear();
    affected_small.clear();
    auto gather = [&](int lut_moved) {
      for (const NetUse* u = st.nets_begin(lut_moved); u != st.nets_end(lut_moved); ++u) {
        const std::size_t nn = static_cast<std::size_t>(u->net);
        if (net_saved_stamp[nn] == stamp) continue;
        net_saved_stamp[nn] = stamp;
        ++result.delta_evaluations;
        if (!st.boxed(nn)) {
          affected_small.push_back(u->net);
          before += st.net_hpwl(nn, now);
          after += st.net_hpwl(nn, after_move);
        } else {
          saved_boxes.emplace_back(u->net, st.boxes[nn]);
          before += st.boxes[nn].hpwl();
        }
      }
    };
    gather(lut);
    if (m.other >= 0) gather(m.other);

    // Push the moved endpoints through the big nets' boxes. A shrink-forced
    // rescan reads the final positions, so it is exact at any point; a
    // rescanned net is marked done and later endpoint moves (the second LUT
    // of a swap sharing the net) must be skipped.
    auto update_nets = [&](int lut_moved, Pos from, Pos to) {
      for (const NetUse* u = st.nets_begin(lut_moved); u != st.nets_end(lut_moved); ++u) {
        const std::size_t nn = static_cast<std::size_t>(u->net);
        if (!st.boxed(nn) || net_done_stamp[nn] == stamp) continue;
        NetBox& box = st.boxes[nn];
        for (int k = 0; k < u->mult; ++k) {
          if (!move_axis(from.x, to.x, box.min_x, box.max_x, box.cnt_min_x, box.cnt_max_x) ||
              !move_axis(from.y, to.y, box.min_y, box.max_y, box.cnt_min_y, box.cnt_max_y)) {
            box = st.scan_box(nn, after_move);
            ++result.bbox_rescans;
            net_done_stamp[nn] = stamp;  // skip its remaining endpoint moves
            break;
          }
        }
      }
    };
    if (!saved_boxes.empty()) {
      update_nets(lut, m.other_to, m.lut_to);
      if (m.other >= 0) update_nets(m.other, m.lut_to, m.other_to);
    }
    for (const auto& [n, saved] : saved_boxes) {
      (void)saved;
      after += st.boxes[static_cast<std::size_t>(n)].hpwl();
    }
    delta = after - before;

    if (options.verify_incremental) {
      // Exact cross-check on the moved placement: every big net's maintained
      // box must equal a fresh endpoint scan, and the summed delta must
      // match an exact rescan of all affected nets (all quantities are
      // integer-valued, so equality is exact).
      st.commit(m);
      for (const auto& [n, saved] : saved_boxes) {
        const NetBox fresh = st.scan_box(static_cast<std::size_t>(n), now);
        const NetBox& kept = st.boxes[static_cast<std::size_t>(n)];
        if (fresh.min_x != kept.min_x || fresh.max_x != kept.max_x ||
            fresh.min_y != kept.min_y || fresh.max_y != kept.max_y ||
            fresh.cnt_min_x != kept.cnt_min_x || fresh.cnt_max_x != kept.cnt_max_x ||
            fresh.cnt_min_y != kept.cnt_min_y || fresh.cnt_max_y != kept.cnt_max_y) {
          return common::Result<PlaceResult>::error(common::format(
              "incremental bbox drift on net %d at move %llu", n,
              static_cast<unsigned long long>(result.moves)));
        }
      }
      double exact_after = 0.0;
      for (const int n : affected_small) {
        exact_after += st.net_hpwl(static_cast<std::size_t>(n), now);
      }
      for (const auto& [n, saved] : saved_boxes) {
        (void)saved;
        exact_after += st.net_hpwl(static_cast<std::size_t>(n), now);
      }
      if (exact_after - before != delta) {
        return common::Result<PlaceResult>::error(common::format(
            "incremental delta %f != exact %f at move %llu", delta, exact_after - before,
            static_cast<unsigned long long>(result.moves)));
      }
      st.commit(m.reversed());
    }

    const bool accept = delta <= 0.0 || rng.chance(std::exp(-delta / temperature));
    if (accept) {
      st.commit(m);
      cost += delta;
      ++result.accepted_moves;
    } else {
      // Restore the saved big-net boxes (nothing else moved).
      for (const auto& [n, saved] : saved_boxes) {
        st.boxes[static_cast<std::size_t>(n)] = saved;
      }
    }
    if (stage_end) temperature *= options.cooling;
  }

  result.placement.resize(num_luts);
  for (std::size_t i = 0; i < num_luts; ++i) {
    result.placement[i] = site_of_slot(geometry, st.lut_slot[i]);
  }
  result.input_pads = std::move(input_pads);
  result.output_pads = std::move(output_pads);
  result.hpwl = cost;
  return result;
}

}  // namespace warp::pnr
