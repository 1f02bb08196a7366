#include <algorithm>
#include <cmath>
#include <map>
#include <queue>

#include "pnr/pnr.hpp"

#include "common/strings.hpp"
#include "pnr/bucket_queue.hpp"

namespace warp::pnr {
namespace {

using fabric::FabricGeometry;
using fabric::LutSite;
using fabric::RoutedNet;
using techmap::LutNetlist;
using techmap::NetRef;

// Routing-resource grid: cells (x, y) with x in [-1, width] (the two IO
// columns) and y in [0, height). Congestion is tracked per cell: each cell's
// switch matrix passes at most `capacity` nets.
struct Grid {
  const FabricGeometry& g;
  explicit Grid(const FabricGeometry& geometry) : g(geometry) {}

  int cols() const { return static_cast<int>(g.width) + 2; }
  int rows() const { return static_cast<int>(g.height); }
  int id(int x, int y) const { return (x + 1) * rows() + y; }
  int size() const { return cols() * rows(); }
  bool valid(int x, int y) const {
    return x >= -1 && x <= static_cast<int>(g.width) && y >= 0 && y < rows();
  }
};

struct NetToRoute {
  int driver_lut = -1;
  int driver_input = -1;
  std::pair<int, int> source;
  struct SinkSpec {
    int lut = -1;
    int output_index = -1;
    unsigned input_pin = 0;
    std::pair<int, int> cell;
  };
  std::vector<SinkSpec> sinks;
};

// Nets with physical positions, sinks sorted near-to-far from the driver
// (better Steiner-ish trees, and a deterministic routing order).
std::vector<NetToRoute> build_nets(const LutNetlist& netlist, const PlaceResult& placement) {
  std::vector<NetToRoute> nets;
  std::vector<int> net_of_lut(netlist.luts.size(), -1);
  std::vector<int> net_of_input(netlist.primary_inputs.size(), -1);
  auto net_for = [&](const NetRef& ref) -> int {
    if (ref.kind == NetRef::Kind::kConst0 || ref.kind == NetRef::Kind::kConst1) return -1;
    const bool lut = ref.kind == NetRef::Kind::kLut;
    int& id = (lut ? net_of_lut : net_of_input)[static_cast<std::size_t>(ref.index)];
    if (id >= 0) return id;
    NetToRoute net;
    if (lut) {
      net.driver_lut = ref.index;
      const LutSite site = placement.placement[static_cast<std::size_t>(ref.index)];
      net.source = {site.x, site.y};
    } else {
      net.driver_input = ref.index;
      const LutSite site = placement.input_pads[static_cast<std::size_t>(ref.index)];
      net.source = {site.x, site.y};
    }
    id = static_cast<int>(nets.size());
    nets.push_back(std::move(net));
    return id;
  };

  for (std::size_t i = 0; i < netlist.luts.size(); ++i) {
    const LutSite site = placement.placement[i];
    for (unsigned k = 0; k < netlist.luts[i].num_inputs; ++k) {
      const int n = net_for(netlist.luts[i].inputs[k]);
      if (n < 0) continue;
      NetToRoute::SinkSpec sink;
      sink.lut = static_cast<int>(i);
      sink.input_pin = k;
      sink.cell = {site.x, site.y};
      nets[static_cast<std::size_t>(n)].sinks.push_back(sink);
    }
  }
  for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
    const int n = net_for(netlist.outputs[o].source);
    if (n < 0) continue;
    NetToRoute::SinkSpec sink;
    sink.output_index = static_cast<int>(o);
    const LutSite pad = placement.output_pads[o];
    sink.cell = {pad.x, pad.y};
    nets[static_cast<std::size_t>(n)].sinks.push_back(sink);
  }

  for (auto& net : nets) {
    std::sort(net.sinks.begin(), net.sinks.end(),
              [&](const NetToRoute::SinkSpec& a, const NetToRoute::SinkSpec& b) {
                const int da = std::abs(a.cell.first - net.source.first) +
                               std::abs(a.cell.second - net.source.second);
                const int db = std::abs(b.cell.first - net.source.first) +
                               std::abs(b.cell.second - net.source.second);
                return da < db;
              });
  }
  return nets;
}

// Arrival-time propagation over the routed netlist. Net delay to a sink =
// io + hops*wire; LUT ids are in topological order (techmap covers leaves
// first).
double compute_timing(const LutNetlist& netlist, const FabricGeometry& geometry,
                      const std::vector<RoutedNet>& routes) {
  std::vector<double> arrival(netlist.luts.size(), 0.0);
  std::vector<double> net_delay_to_lut_pin(netlist.luts.size() * techmap::kLutInputs, 0.0);
  std::vector<double> output_arrival(netlist.outputs.size(), 0.0);
  for (const auto& routed : routes) {
    for (const auto& sink : routed.sinks) {
      const double hops = sink.path.empty() ? 0.0 : static_cast<double>(sink.path.size() - 1);
      const double delay = geometry.io_delay_ns * (routed.driver_input >= 0 ? 1.0 : 0.0) +
                           hops * geometry.wire_hop_delay_ns;
      if (sink.lut >= 0) {
        net_delay_to_lut_pin[static_cast<std::size_t>(sink.lut) * techmap::kLutInputs +
                             sink.input_pin] = delay;
      } else if (sink.output_index >= 0) {
        output_arrival[static_cast<std::size_t>(sink.output_index)] = delay;
      }
    }
  }
  double critical = 0.0;
  for (std::size_t i = 0; i < netlist.luts.size(); ++i) {
    double in_arrival = 0.0;
    for (unsigned k = 0; k < netlist.luts[i].num_inputs; ++k) {
      const NetRef& ref = netlist.luts[i].inputs[k];
      double src = 0.0;
      if (ref.kind == NetRef::Kind::kLut) src = arrival[static_cast<std::size_t>(ref.index)];
      in_arrival = std::max(in_arrival,
                            src + net_delay_to_lut_pin[i * techmap::kLutInputs + k]);
    }
    arrival[i] = in_arrival + geometry.lut_delay_ns;
    critical = std::max(critical, arrival[i]);
  }
  for (std::size_t o = 0; o < netlist.outputs.size(); ++o) {
    const NetRef& ref = netlist.outputs[o].source;
    double src = 0.0;
    if (ref.kind == NetRef::Kind::kLut) src = arrival[static_cast<std::size_t>(ref.index)];
    critical = std::max(critical, src + output_arrival[o] + geometry.io_delay_ns);
  }
  return critical;
}

// ---------------------------------------------------------------------------
// Baseline router: rip up and reroute *every* net each congestion iteration
// (the pre-incremental algorithm, kept as the bench/regression reference).
// ---------------------------------------------------------------------------
void route_full_ripup(const Grid& grid, const FabricGeometry& geometry,
                      const RouteOptions& options, std::vector<NetToRoute>& nets,
                      std::vector<std::vector<std::vector<std::pair<int, int>>>>& paths,
                      RouteResult& result) {
  std::vector<double> history(static_cast<std::size_t>(grid.size()), 0.0);
  std::vector<int> usage(static_cast<std::size_t>(grid.size()), 0);

  const int dx[4] = {1, -1, 0, 0};
  const int dy[4] = {0, 0, 1, -1};

  for (unsigned iter = 1; iter <= options.max_iterations; ++iter) {
    result.iterations = iter;
    std::fill(usage.begin(), usage.end(), 0);
    const double present_weight = options.present_factor * static_cast<double>(iter);
    result.nets_rerouted_per_iter.push_back(static_cast<unsigned>(nets.size()));
    if (iter > 1) result.nets_rerouted += nets.size();

    for (std::size_t ni_net = 0; ni_net < nets.size(); ++ni_net) {
      auto& net = nets[ni_net];
      auto& net_paths = paths[ni_net];
      net_paths.assign(net.sinks.size(), {});
      // Route to each sink with A*, reusing the growing tree (cells of the
      // net cost nothing to re-enter).
      std::map<int, unsigned> tree_hops;  // cell id -> hops from driver
      tree_hops[grid.id(net.source.first, net.source.second)] = 0;

      for (std::size_t si = 0; si < net.sinks.size(); ++si) {
        auto& sink = net.sinks[si];
        const int goal = grid.id(sink.cell.first, sink.cell.second);
        // A* from the whole tree.
        std::vector<double> best_cost(static_cast<std::size_t>(grid.size()), 1e30);
        std::vector<int> parent(static_cast<std::size_t>(grid.size()), -2);
        using QE = std::pair<double, int>;  // (cost + heuristic, cell)
        std::priority_queue<QE, std::vector<QE>, std::greater<>> queue;
        auto heuristic = [&](int cell) {
          const int x = cell / grid.rows() - 1;
          const int y = cell % grid.rows();
          return static_cast<double>(std::abs(x - sink.cell.first) +
                                     std::abs(y - sink.cell.second));
        };
        for (const auto& [cell, hops] : tree_hops) {
          best_cost[static_cast<std::size_t>(cell)] = 0.0;
          parent[static_cast<std::size_t>(cell)] = -1;
          queue.emplace(heuristic(cell), cell);
        }
        int found = -1;
        while (!queue.empty()) {
          const auto [prio, cell] = queue.top();
          queue.pop();
          const double cost = prio - heuristic(cell);
          if (cost > best_cost[static_cast<std::size_t>(cell)] + 1e-9) continue;
          ++result.expansions;
          if (cell == goal) {
            found = cell;
            break;
          }
          const int x = cell / grid.rows() - 1;
          const int y = cell % grid.rows();
          for (int d = 0; d < 4; ++d) {
            const int nx = x + dx[d];
            const int ny = y + dy[d];
            if (!grid.valid(nx, ny)) continue;
            const int next = grid.id(nx, ny);
            const std::size_t ni = static_cast<std::size_t>(next);
            // IO register-bank columns are dedicated buses: no congestion.
            const bool io_column = (nx < 0 || nx >= static_cast<int>(geometry.width));
            const double over =
                io_column ? 0.0
                          : std::max(0, usage[ni] + 1 -
                                            static_cast<int>(geometry.channel_capacity));
            const double step = 1.0 + present_weight * over + history[ni];
            const double ncost = cost + step;
            if (ncost + 1e-9 < best_cost[ni]) {
              best_cost[ni] = ncost;
              parent[ni] = cell;
              queue.emplace(ncost + heuristic(next), next);
            }
          }
        }
        if (found < 0) continue;  // unreachable; path stays empty
        // Trace back to the tree.
        std::vector<int> cells;
        int cur = found;
        while (parent[static_cast<std::size_t>(cur)] != -1) {
          cells.push_back(cur);
          cur = parent[static_cast<std::size_t>(cur)];
        }
        cells.push_back(cur);  // tree entry
        std::reverse(cells.begin(), cells.end());
        const unsigned entry_hops = tree_hops[cells.front()];
        auto& path = net_paths[si];
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const int cell = cells[i];
          if (!tree_hops.count(cell)) {
            tree_hops[cell] = entry_hops + static_cast<unsigned>(i);
            ++usage[static_cast<std::size_t>(cell)];
          }
          path.emplace_back(cell / grid.rows() - 1, cell % grid.rows());
        }
      }
    }

    // Legality check (IO register-bank columns are uncapacitated).
    bool overused = false;
    for (std::size_t i = 0; i < usage.size(); ++i) {
      const int x = static_cast<int>(i) / grid.rows() - 1;
      if (x < 0 || x >= static_cast<int>(geometry.width)) continue;
      const int over = usage[i] - static_cast<int>(geometry.channel_capacity);
      if (over > 0) {
        overused = true;
        history[i] += options.history_factor * over;
      }
    }
    if (!overused) {
      result.success = true;
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Selective rip-up router. Routed trees, cell usage and the history-cost
// grid persist across congestion iterations; only sinks whose paths cross an
// overused cell (or whose tree entry was ripped out from under them) are
// rerouted, with A* seeded from the net's surviving tree.
//
// The A* open list is a BucketQueue, which pops in exactly the heap's
// (f, cell) order, and each cell's step cost is cached in step_ (refreshed
// whenever present_weight_, history_ or usage_ changes), so routes and
// expansion counts match the heap-based search bit for bit.
// ---------------------------------------------------------------------------
class SelectiveRouter {
 public:
  SelectiveRouter(const Grid& grid, const FabricGeometry& geometry,
                  const RouteOptions& options, std::vector<NetToRoute>& nets,
                  std::vector<std::vector<std::vector<std::pair<int, int>>>>& paths,
                  RouteResult& result)
      : grid_(grid), geometry_(geometry), options_(options), nets_(nets), paths_(paths),
        result_(result), queue_(grid.size()) {
    const std::size_t cells = static_cast<std::size_t>(grid.size());
    usage_.assign(cells, 0);
    history_.assign(cells, 0.0);
    step_.assign(cells, 0.0);
    cell_x_.resize(cells);
    cell_y_.resize(cells);
    for (std::size_t c = 0; c < cells; ++c) {
      cell_x_[c] = static_cast<int>(c) / grid.rows() - 1;
      cell_y_[c] = static_cast<int>(c) % grid.rows();
    }
    overused_cell_.assign(cells, 0);
    best_cost_.assign(cells, 0.0);
    parent_.assign(cells, -2);
    visit_epoch_.assign(cells, 0);
    tree_mark_.assign(cells, 0);
    tree_hop_at_.assign(cells, 0);
    tree_cells_.resize(nets.size());
    tree_hops_.resize(nets.size());
    for (std::size_t n = 0; n < nets.size(); ++n) {
      paths_[n].assign(nets[n].sinks.size(), {});
    }
  }

  void run() {
    std::vector<std::size_t> ripped_sinks;
    for (unsigned iter = 1; iter <= options_.max_iterations; ++iter) {
      result_.iterations = iter;
      present_weight_ = options_.present_factor * static_cast<double>(iter);
      for (std::size_t i = 0; i < step_.size(); ++i) refresh_step(i);
      unsigned nets_routed = 0;

      for (std::size_t n = 0; n < nets_.size(); ++n) {
        ripped_sinks.clear();
        if (iter == 1) {
          // Fresh tree: just the driver cell (sources carry no switch usage).
          tree_cells_[n] = {grid_.id(nets_[n].source.first, nets_[n].source.second)};
          tree_hops_[n] = {0};
          for (std::size_t s = 0; s < nets_[n].sinks.size(); ++s) ripped_sinks.push_back(s);
        } else {
          rip_up(n, ripped_sinks);
        }
        if (ripped_sinks.empty()) continue;
        ++nets_routed;
        if (iter > 1) ++result_.nets_rerouted;
        route_sinks(n, ripped_sinks);
      }
      result_.nets_rerouted_per_iter.push_back(nets_routed);

      // Legality check (IO register-bank columns are uncapacitated); flag
      // the overused cells for the next iteration's rip-up and accumulate
      // their history cost.
      bool overused = false;
      for (std::size_t i = 0; i < usage_.size(); ++i) {
        const int x = static_cast<int>(i) / grid_.rows() - 1;
        overused_cell_[i] = 0;
        if (x < 0 || x >= static_cast<int>(geometry_.width)) continue;
        const int over = usage_[i] - static_cast<int>(geometry_.channel_capacity);
        if (over > 0) {
          overused = true;
          overused_cell_[i] = 1;
          history_[i] += options_.history_factor * over;
        }
      }
      if (!overused) {
        result_.success = true;
        return;
      }
    }
  }

 private:
  // Cost of stepping into cell ci, with one more net through it.
  void refresh_step(std::size_t ci) {
    // IO register-bank columns are dedicated buses: no congestion.
    const bool io_column = (cell_x_[ci] < 0 || cell_x_[ci] >= static_cast<int>(geometry_.width));
    const double over =
        io_column ? 0.0
                  : std::max(0, usage_[ci] + 1 - static_cast<int>(geometry_.channel_capacity));
    step_[ci] = 1.0 + present_weight_ * over + history_[ci];
  }

  // Rebuild net n's tree from the sinks whose paths avoid every overused
  // cell (cascading: a surviving path whose entry cell was ripped is ripped
  // too), release usage for the removed cells, and report the sinks that
  // must be rerouted.
  void rip_up(std::size_t n, std::vector<std::size_t>& ripped_sinks) {
    const auto& old_cells = tree_cells_[n];
    const int source = old_cells.empty()
                           ? grid_.id(nets_[n].source.first, nets_[n].source.second)
                           : old_cells.front();

    bool any_bad = false;
    for (std::size_t s = 0; s < paths_[n].size() && !any_bad; ++s) {
      if (paths_[n][s].empty()) any_bad = true;
      for (const auto& [x, y] : paths_[n][s]) {
        if (overused_cell_[static_cast<std::size_t>(grid_.id(x, y))]) {
          any_bad = true;
          break;
        }
      }
    }
    if (!any_bad) return;  // whole tree survives

    ++tree_epoch_;
    new_cells_.clear();
    new_hops_.clear();
    auto mark = [&](int cell, unsigned hops) {
      tree_mark_[static_cast<std::size_t>(cell)] = tree_epoch_;
      tree_hop_at_[static_cast<std::size_t>(cell)] = hops;
      new_cells_.push_back(cell);
      new_hops_.push_back(hops);
    };
    mark(source, 0);

    for (std::size_t s = 0; s < paths_[n].size(); ++s) {
      auto& path = paths_[n][s];
      bool bad = path.empty();
      for (const auto& [x, y] : path) {
        if (bad) break;
        if (overused_cell_[static_cast<std::size_t>(grid_.id(x, y))]) bad = true;
      }
      if (!bad) {
        const int entry = grid_.id(path.front().first, path.front().second);
        if (tree_mark_[static_cast<std::size_t>(entry)] != tree_epoch_) {
          bad = true;  // entry was on a ripped branch
        } else {
          const unsigned entry_hops = tree_hop_at_[static_cast<std::size_t>(entry)];
          for (std::size_t i = 0; i < path.size(); ++i) {
            const int cell = grid_.id(path[i].first, path[i].second);
            if (tree_mark_[static_cast<std::size_t>(cell)] != tree_epoch_) {
              mark(cell, entry_hops + static_cast<unsigned>(i));
            }
          }
        }
      }
      if (bad) {
        path.clear();
        ripped_sinks.push_back(s);
      }
    }

    // Release usage for cells that fell out of the tree (the source is in
    // both trees and never carried usage).
    for (const int cell : old_cells) {
      if (tree_mark_[static_cast<std::size_t>(cell)] != tree_epoch_) {
        --usage_[static_cast<std::size_t>(cell)];
        refresh_step(static_cast<std::size_t>(cell));
      }
    }
    tree_cells_[n] = new_cells_;
    tree_hops_[n] = new_hops_;
  }

  // A*-route the given sinks of net n from its current tree, growing the
  // tree (and cell usage) with each new path.
  void route_sinks(std::size_t n, const std::vector<std::size_t>& sink_indices) {
    auto& net = nets_[n];
    // Load the tree into the stamped scratch map.
    ++tree_epoch_;
    for (std::size_t i = 0; i < tree_cells_[n].size(); ++i) {
      tree_mark_[static_cast<std::size_t>(tree_cells_[n][i])] = tree_epoch_;
      tree_hop_at_[static_cast<std::size_t>(tree_cells_[n][i])] = tree_hops_[n][i];
    }

    // Cell ids run column-major, so the +x, -x, +y, -y neighbours of a cell
    // are id + rows, id - rows, id + 1 and id - 1.
    const int rows = grid_.rows();
    const int max_x = static_cast<int>(geometry_.width);
    for (const std::size_t si : sink_indices) {
      const auto& sink = net.sinks[si];
      const int gx = sink.cell.first;
      const int gy = sink.cell.second;
      const int goal = grid_.id(gx, gy);
      ++astar_epoch_;
      // The queue rejects a repeated identical (f, cell), which a heap would
      // pop twice. A* never pushes one: a cell is pushed again only after its
      // cost fell by more than 1e-9, and h(cell) is fixed, so the new f is
      // lower by more than 1e-9 as well. That is far above one ulp of f
      // (about 1.4e-14 near f = 100); an ulp exceeds 1e-9 only for
      // f >= 2^23, which no route cost comes near.
      auto relax = [&](int next, double cost, int par, int h) {
        const std::size_t ni = static_cast<std::size_t>(next);
        const double ncost = cost + step_[ni];
        if (visit_epoch_[ni] == astar_epoch_ && ncost + 1e-9 >= best_cost_[ni]) return;
        visit_epoch_[ni] = astar_epoch_;
        best_cost_[ni] = ncost;
        parent_[ni] = par;
        queue_.push(ncost + static_cast<double>(h), next);
      };
      queue_.clear();
      for (const int cell : tree_cells_[n]) {
        const std::size_t ci = static_cast<std::size_t>(cell);
        visit_epoch_[ci] = astar_epoch_;
        best_cost_[ci] = 0.0;
        parent_[ci] = -1;
        queue_.push(static_cast<double>(std::abs(cell_x_[ci] - gx) + std::abs(cell_y_[ci] - gy)),
                    cell);
      }
      int found = -1;
      while (!queue_.empty()) {
        const auto [prio, cell] = queue_.pop();
        const std::size_t ci = static_cast<std::size_t>(cell);
        const int x = cell_x_[ci];
        const int y = cell_y_[ci];
        const int hx = std::abs(x - gx);
        const int hy = std::abs(y - gy);
        const double cost = prio - static_cast<double>(hx + hy);
        if (cost > best_cost_[ci] + 1e-9) continue;
        ++result_.expansions;
        if (cell == goal) {
          found = cell;
          break;
        }
        if (x < max_x) relax(cell + rows, cost, cell, std::abs(x + 1 - gx) + hy);
        if (x >= 0) relax(cell - rows, cost, cell, std::abs(x - 1 - gx) + hy);
        if (y + 1 < rows) relax(cell + 1, cost, cell, hx + std::abs(y + 1 - gy));
        if (y > 0) relax(cell - 1, cost, cell, hx + std::abs(y - 1 - gy));
      }
      auto& path = paths_[n][si];
      path.clear();
      if (found < 0) continue;  // unreachable; path stays empty
      // Trace back to the tree; trace_ holds the path sink-first.
      trace_.clear();
      for (int cur = found; cur != -1; cur = parent_[static_cast<std::size_t>(cur)]) {
        trace_.push_back(cur);
      }
      const unsigned entry_hops = tree_hop_at_[static_cast<std::size_t>(trace_.back())];
      path.reserve(trace_.size());
      for (std::size_t i = 0; i < trace_.size(); ++i) {
        const int cell = trace_[trace_.size() - 1 - i];
        const std::size_t ci = static_cast<std::size_t>(cell);
        if (tree_mark_[ci] != tree_epoch_) {
          tree_mark_[ci] = tree_epoch_;
          tree_hop_at_[ci] = entry_hops + static_cast<unsigned>(i);
          tree_cells_[n].push_back(cell);
          tree_hops_[n].push_back(entry_hops + static_cast<unsigned>(i));
          ++usage_[ci];
          refresh_step(ci);
        }
        path.emplace_back(cell_x_[ci], cell_y_[ci]);
      }
    }
  }

  const Grid& grid_;
  const FabricGeometry& geometry_;
  const RouteOptions& options_;
  std::vector<NetToRoute>& nets_;
  std::vector<std::vector<std::vector<std::pair<int, int>>>>& paths_;
  RouteResult& result_;

  // Persistent congestion state; step_[c] caches the cost of entering c.
  std::vector<int> usage_;
  std::vector<double> history_;
  std::vector<char> overused_cell_;
  double present_weight_ = 0.0;
  std::vector<double> step_;
  // Grid coordinates of every cell.
  std::vector<int> cell_x_;
  std::vector<int> cell_y_;
  // Persistent per-net routed trees (parallel cell/hop arrays).
  std::vector<std::vector<int>> tree_cells_;
  std::vector<std::vector<unsigned>> tree_hops_;
  // Epoch-stamped scratch (no per-sink reallocation/refill).
  std::vector<double> best_cost_;
  std::vector<int> parent_;
  std::vector<int> visit_epoch_;
  int astar_epoch_ = 0;
  std::vector<int> tree_mark_;
  std::vector<unsigned> tree_hop_at_;
  int tree_epoch_ = 0;
  std::vector<int> new_cells_;
  std::vector<unsigned> new_hops_;
  BucketQueue queue_;
  std::vector<int> trace_;  // trace-back buffer, reused across sinks
};

}  // namespace

common::Result<RouteResult> route(const LutNetlist& netlist, const FabricGeometry& geometry,
                                  const PlaceResult& placement, const RouteOptions& options) {
  Grid grid(geometry);
  std::vector<NetToRoute> nets = build_nets(netlist, placement);

  RouteResult result;
  // paths[net][sink] = routed cells from tree entry to sink, inclusive.
  std::vector<std::vector<std::vector<std::pair<int, int>>>> paths(nets.size());
  for (std::size_t n = 0; n < nets.size(); ++n) paths[n].resize(nets[n].sinks.size());

  if (options.selective_ripup) {
    SelectiveRouter router(grid, geometry, options, nets, paths, result);
    router.run();
  } else {
    route_full_ripup(grid, geometry, options, nets, paths, result);
  }

  // Convert to RoutedNet records (even on failure, for diagnostics).
  result.routes.reserve(nets.size());
  for (std::size_t n = 0; n < nets.size(); ++n) {
    const auto& net = nets[n];
    RoutedNet routed;
    routed.driver_lut = net.driver_lut;
    routed.driver_input = net.driver_input;
    routed.sinks.reserve(net.sinks.size());
    for (std::size_t si = 0; si < net.sinks.size(); ++si) {
      const auto& sink = net.sinks[si];
      RoutedNet::Sink s;
      s.lut = sink.lut;
      s.output_index = sink.output_index;
      s.input_pin = sink.input_pin;
      s.path = std::move(paths[n][si]);
      result.max_hops = std::max(result.max_hops,
                                 static_cast<unsigned>(s.path.empty() ? 0 : s.path.size() - 1));
      routed.sinks.push_back(std::move(s));
    }
    result.routes.push_back(std::move(routed));
  }

  if (!result.success) {
    return common::Result<RouteResult>::error(common::format(
        "routing did not converge after %u iterations", result.iterations));
  }

  result.critical_path_ns = compute_timing(netlist, geometry, result.routes);
  return result;
}

common::Result<PnrResult> place_and_route(const LutNetlist& netlist,
                                          const fabric::FabricGeometry& geometry,
                                          const PnrOptions& options) {
  auto placed = place(netlist, geometry, options.place);
  if (!placed) return common::Result<PnrResult>::error(placed.message());
  auto routed = route(netlist, geometry, placed.value(), options.route);
  if (!routed) return common::Result<PnrResult>::error(routed.message());

  PnrResult result;
  result.place = std::move(placed).value();
  result.route = std::move(routed).value();

  result.config.geometry = geometry;
  result.config.netlist = netlist;
  result.config.placement = result.place.placement;
  result.config.input_pads = result.place.input_pads;
  result.config.output_pads = result.place.output_pads;
  result.config.routes = result.route.routes;
  result.config.critical_path_ns = result.route.critical_path_ns;
  return result;
}

common::Digest content_hash(const PnrResult& result) {
  common::Hasher h;
  h.digest(fabric::content_hash(result.config));
  h.f64(result.place.hpwl).u64(result.place.moves).u64(result.place.accepted_moves);
  h.u64(result.place.delta_evaluations).u64(result.place.bbox_rescans);
  h.boolean(result.route.success).u32(result.route.iterations).u64(result.route.expansions);
  h.f64(result.route.critical_path_ns).u32(result.route.max_hops);
  h.u64(result.route.nets_rerouted);
  return h.finish();
}

}  // namespace warp::pnr
