#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include "common/rng.hpp"

namespace ledger {

std::optional<double> percentile(std::vector<double> samples, double p) {
  const std::size_t n = samples.size();
  if (n == 0 || p <= 0.0 || p >= 100.0) return std::nullopt;
  // Nearest rank: the smallest value with at least p% of samples at or below.
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
  if (rank == 0 || n - rank < kMinBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   samples.end());
  return samples[rank - 1];
}

std::optional<WindowedTail> windowed_percentile(
    const std::vector<std::pair<double, double>>& samples, double p, std::size_t max_windows) {
  if (samples.empty()) return std::nullopt;
  double first = samples.front().first;
  double last = first;
  for (const auto& [time, value] : samples) {
    first = std::min(first, time);
    last = std::max(last, time);
  }
  for (std::size_t windows = std::max<std::size_t>(1, max_windows); windows > 0; --windows) {
    const double width = (last - first) / static_cast<double>(windows);
    std::vector<std::vector<double>> by_window(windows);
    for (const auto& [time, value] : samples) {
      const auto w = width > 0.0 ? static_cast<std::size_t>((time - first) / width) : 0;
      by_window[std::min(w, windows - 1)].push_back(value);
    }
    std::vector<double> tails;
    for (auto& values : by_window) {
      const auto tail = percentile(std::move(values), p);
      if (!tail) break;
      tails.push_back(*tail);
    }
    if (tails.size() == windows) return WindowedTail{median(tails), windows};
  }
  return std::nullopt;
}

double highest_supported_percentile(std::size_t n, const std::vector<double>& candidates) {
  for (const double p : candidates) {
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(n)));
    if (rank > 0 && rank <= n && n - rank >= kMinBeyond) return p;
  }
  return 0.0;
}

bool backlog_grew(const std::vector<double>& outstanding) {
  const std::size_t n = outstanding.size();
  if (n < 4) return false;
  const auto half = static_cast<std::ptrdiff_t>(n / 2);
  const double first = median({outstanding.begin(), outstanding.begin() + half});
  const double second = median({outstanding.begin() + half, outstanding.end()});
  return second > 1.5 * first + 2.0;
}

bool rung_meets(const Rung& rung, double limit_ms) {
  return rung.failed == 0 && !rung.backlog_grew && rung.tail_ms && *rung.tail_ms <= limit_ms;
}

double max_rate(std::vector<Rung> tested, double limit_ms) {
  std::sort(tested.begin(), tested.end(),
            [](const Rung& a, const Rung& b) { return a.rate_per_s < b.rate_per_s; });
  double best = 0.0;
  for (const Rung& rung : tested) {
    if (!rung_meets(rung, limit_ms)) break;
    best = rung.rate_per_s;
  }
  return best;
}

double ladder_rate(double base, double step, int k) { return base * std::pow(step, k); }

int start_rung(double base, double step, double capacity_per_s, double fraction, int lowest) {
  int k = lowest;
  while (ladder_rate(base, step, k + 1) <= fraction * capacity_per_s) ++k;
  return k;
}

std::optional<int> next_rung(const std::map<int, bool>& met, int lowest) {
  int floor = lowest - 1;
  std::optional<int> miss;
  for (const auto& [rung, ok] : met) {  // ascending
    if (!ok) {
      miss = rung;
      break;
    }
    floor = rung;
  }
  if (!miss) return floor + 1;
  if (*miss - floor <= 1) return std::nullopt;
  return floor + (*miss - floor) / 2;
}

std::vector<StreamKey> key_space(const StreamSpec& spec) {
  std::vector<StreamKey> keys;
  for (const auto& workload : spec.workloads) {
    for (const unsigned width : spec.packed_widths) {
      for (const unsigned candidates : spec.max_candidates) {
        keys.push_back(StreamKey{workload, width, candidates});
      }
    }
  }
  return keys;
}

std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  warp::common::Rng rng(seed);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(static_cast<std::uint32_t>(i))]);
  }
  return order;
}

std::vector<StreamKey> make_stream(const StreamSpec& spec, std::uint64_t seed, std::size_t n) {
  const std::vector<StreamKey> keys = key_space(spec);
  std::vector<StreamKey> stream;
  if (keys.empty()) return stream;
  warp::common::Rng rng(seed ^ 0xA0761D6478BD642Full);
  std::vector<std::size_t> deck;
  std::size_t next = 0;
  while (stream.size() < n) {
    if (next == deck.size()) {
      deck = permutation(keys.size(), rng.next_u64());
      next = 0;
    }
    const StreamKey& key = keys[deck[next++]];
    stream.push_back(key);
    if (stream.size() < n && rng.chance(spec.repeat_probability)) stream.push_back(key);
  }
  return stream;
}

std::vector<double> due_offsets(double rate_per_s, std::size_t n, std::uint64_t seed) {
  std::vector<double> due(n);
  warp::common::Rng rng(seed ^ 0xE7037ED1A0B428DBull);
  const double gap = 1.0 / rate_per_s;
  double t = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t;
    t += gap * (0.5 + rng.next_double());
  }
  return due;
}

double mean_over_workloads(const std::map<std::string, std::vector<double>>& by_workload) {
  double sum = 0.0;
  for (const auto& [name, values] : by_workload) {
    const std::set<double> distinct(values.begin(), values.end());
    double workload_sum = 0.0;
    for (const double v : distinct) workload_sum += v;
    sum += workload_sum / static_cast<double>(distinct.size());
  }
  return by_workload.empty() ? 0.0 : sum / static_cast<double>(by_workload.size());
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

}  // namespace ledger
