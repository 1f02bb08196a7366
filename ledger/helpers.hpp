// Pure helpers of the ledger benchmark: the percentile rule, due-time
// latency, the rate ladder with its backlog test, and the seeded request
// stream. None of them touches the warp library, so ledger_helpers_test
// checks them in isolation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ledger {

/// Nearest-rank percentile p (0 < p < 100) of `samples`, reported only when
/// at least kMinBeyond samples lie above the percentile's rank; otherwise
/// nullopt. A median therefore needs 20 samples and a p99 needs 1000.
inline constexpr std::size_t kMinBeyond = 10;
std::optional<double> percentile(std::vector<double> samples, double p);

/// A tail percentile taken over consecutive time windows.
struct WindowedTail {
  double value = 0.0;
  std::size_t windows = 0;
};

/// The median over equal, consecutive time windows of each window's
/// percentile p, from (time, value) samples. One burst of host noise then
/// moves a single window's tail, not the reported one. The window count is
/// the largest, up to `max_windows`, for which every window supports p under
/// the rule above, so the windows are sized from the sample count; nullopt
/// when not even the pooled samples support p.
std::optional<WindowedTail> windowed_percentile(
    const std::vector<std::pair<double, double>>& samples, double p, std::size_t max_windows);

/// The highest of the candidate percentiles (checked in the given order,
/// highest first) that `n` samples support under the rule above; 0 if none.
double highest_supported_percentile(std::size_t n, const std::vector<double>& candidates);

/// One open-loop request: when it was due, when the generator actually sent
/// it, and when its reply arrived (all in seconds on one clock).
struct Timing {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

/// Latency as the user sees it: from when the request was due, so a stalled
/// generator or server charges its stall to every request behind it.
inline double latency_ms(const Timing& t) { return 1e3 * (t.done - t.due); }
/// How late the generator itself sent the request.
inline double lateness_ms(const Timing& t) { return 1e3 * (t.sent - t.due); }

/// True when the outstanding-request count, sampled at even intervals over a
/// rung, grew: the median over the second half exceeds the first half's
/// median by a factor of 1.5 plus an absolute slack of 2 requests. A stable
/// queue hovers around rate x latency (Little's law) in both halves; an
/// overloaded one grows linearly, so its second half sits about three times
/// higher than its first. Medians ignore a short burst that drains again
/// (a host stall). Fewer than 4 samples never count as growth.
bool backlog_grew(const std::vector<double>& outstanding);

/// What one rung of the rate ladder measured.
struct Rung {
  double rate_per_s = 0.0;
  std::size_t samples = 0;          // ok replies
  std::size_t failed = 0;           // err/busy/timeout/mismatch/lost
  std::optional<double> tail_ms;    // the workload's tail percentile, if supported
  bool backlog_grew = false;
};

/// A rung meets the limit when nothing failed, the backlog held steady and
/// its tail percentile is supported by the sample count and within the limit.
bool rung_meets(const Rung& rung, double limit_ms);

/// The highest rate among tested rungs that meets the limit with every lower
/// tested rung meeting it too (a rung above a failing one is noise, not
/// capacity). The rungs may come in any order. 0 when the lowest fails.
double max_rate(std::vector<Rung> tested, double limit_ms);

/// Rate of rung k of the geometric ladder base * step^k; k may be negative.
double ladder_rate(double base, double step, int k);

/// Where the ladder search starts: the highest rung k (down to `lowest`)
/// whose rate is at most `fraction` of the estimated capacity.
int start_rung(double base, double step, double capacity_per_s, double fraction, int lowest);

/// The next rung to test, given the met/missed result of every rung tested
/// so far. Below the lowest missing rung, the highest rung with every tested
/// rung under it meeting is the known floor (`lowest` - 1 if none). With no
/// miss yet the search climbs one rung above the floor; otherwise it bisects
/// between the floor and the lowest miss. nullopt once they are adjacent:
/// the boundary is known.
std::optional<int> next_rung(const std::map<int, bool>& met, int lowest);

/// One request of a served stream: the workload and its config overrides.
struct StreamKey {
  std::string workload;
  unsigned packed_width = 0;
  unsigned max_candidates = 0;

  bool operator==(const StreamKey&) const = default;
};

/// The key space a served workload draws from, and how often a request is
/// immediately repeated (identical back-to-back requests are what warpd's
/// coalescing merges).
struct StreamSpec {
  std::vector<std::string> workloads;
  std::vector<unsigned> packed_widths;
  std::vector<unsigned> max_candidates;
  double repeat_probability = 0.0;
};

/// Every key of the spec's cross product, in a fixed order.
std::vector<StreamKey> key_space(const StreamSpec& spec);

/// `n` requests drawn deck-wise: the key space is shuffled, dealt out, and
/// reshuffled when exhausted, so every seed serves the same mix of keys in
/// a different order; each dealt key is repeated once more with the spec's
/// probability. The same seed always gives the same stream.
std::vector<StreamKey> make_stream(const StreamSpec& spec, std::uint64_t seed, std::size_t n);

/// Due offsets (seconds from the rung start) of `n` open-loop requests at
/// `rate_per_s`: each gap is the mean gap scaled by a seeded factor in
/// [0.5, 1.5), so the offered rate holds on average without Poisson bursts.
std::vector<double> due_offsets(double rate_per_s, std::size_t n, std::uint64_t seed);

/// Seeded permutation of 0..n-1 (Fisher-Yates over the repo's xorshift).
std::vector<std::size_t> permutation(std::size_t n, std::uint64_t seed);

/// Mean over workloads of each workload's mean distinct value. Repeats of a
/// deterministic result do not change it, and neither does how many of them
/// a run happened to complete, so it reads bit-identically across runs.
double mean_over_workloads(const std::map<std::string, std::vector<double>>& by_workload);

/// Median of `values` (mean of the middle two for an even count); 0 if empty.
double median(std::vector<double> values);

}  // namespace ledger
