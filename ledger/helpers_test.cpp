// Tests of the ledger's own helpers: the percentile rule, due-time latency,
// the rate ladder with backlog detection, and the seeded stream generator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "helpers.hpp"

namespace ledger {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, ReportedOnlyWithTenSamplesBeyond) {
  // p99 of 1000 samples has exactly 10 beyond it; of 999 only 9.
  EXPECT_EQ(percentile(one_to(1000), 99.0), 990.0);
  EXPECT_FALSE(percentile(one_to(999), 99.0).has_value());
  // The median needs 20 samples.
  EXPECT_EQ(percentile(one_to(20), 50.0), 10.0);
  EXPECT_FALSE(percentile(one_to(19), 50.0).has_value());
  EXPECT_FALSE(percentile({}, 50.0).has_value());
}

TEST(Percentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(percentile(v, 90.0), 180.0);
}

TEST(Percentile, HighestSupported) {
  const std::vector<double> candidates = {99.0, 95.0, 90.0, 50.0};
  EXPECT_EQ(highest_supported_percentile(1000, candidates), 99.0);
  EXPECT_EQ(highest_supported_percentile(999, candidates), 95.0);
  EXPECT_EQ(highest_supported_percentile(100, candidates), 90.0);
  EXPECT_EQ(highest_supported_percentile(25, candidates), 50.0);
  EXPECT_EQ(highest_supported_percentile(5, candidates), 0.0);
}

TEST(Percentile, WindowedTakesTheMedianWindow) {
  // Three windows of 1000 samples; the middle one holds a burst of noise.
  std::vector<std::pair<double, double>> samples;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 1000; ++i) {
      const double value = (w == 1 && i % 10 == 0) ? 500.0 : static_cast<double>(i % 100);
      samples.emplace_back(w * 10.0 + i * 0.01, value);
    }
  }
  const auto tail = windowed_percentile(samples, 99.0, 3);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->value, 98.0);
  EXPECT_EQ(tail->windows, 3u);
  EXPECT_EQ(percentile([&] {
              std::vector<double> v;
              for (const auto& s : samples) v.push_back(s.second);
              return v;
            }(),
                       99.0),
            500.0);
}

TEST(Percentile, WindowsAreSizedFromTheSampleCount) {
  // 2500 evenly spread samples hold two windows that support a p99, not three.
  std::vector<std::pair<double, double>> samples;
  for (int i = 0; i < 2500; ++i) samples.emplace_back(i * 0.01, static_cast<double>(i % 100));
  const auto tail = windowed_percentile(samples, 99.0, 5);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->windows, 2u);
  EXPECT_EQ(tail->value, 98.5);  // the two windows' p99 are 98 and 99
  // Fewer than a p99 needs, even pooled: no tail at all.
  samples.resize(999);
  EXPECT_FALSE(windowed_percentile(samples, 99.0, 5).has_value());
  samples.resize(1000);
  EXPECT_EQ(windowed_percentile(samples, 99.0, 5)->windows, 1u);
}

TEST(Latency, CountsFromDueTimeNotSendTime) {
  // The generator stalled 40 ms: the request went out late and the reply
  // came 2 ms after sending. The user waited 42 ms.
  const Timing t{1.000, 1.040, 1.042};
  EXPECT_NEAR(latency_ms(t), 42.0, 1e-9);
  EXPECT_NEAR(lateness_ms(t), 40.0, 1e-9);
}

TEST(Ladder, BacklogDetection) {
  // Steady queue around Little's-law occupancy.
  EXPECT_FALSE(backlog_grew({1, 2, 1, 3, 2, 1, 2, 3, 1, 2}));
  // Linear growth of an overloaded server.
  std::vector<double> growing;
  for (int i = 0; i < 20; ++i) growing.push_back(3.0 * i);
  EXPECT_TRUE(backlog_grew(growing));
  // A small absolute wobble on an idle queue is not growth.
  EXPECT_FALSE(backlog_grew({0, 0, 0, 0, 1, 2, 1, 2}));
  // Nor is a short stall late in the rung that drains again.
  EXPECT_FALSE(backlog_grew({1, 2, 1, 2, 1, 2, 1, 2, 1, 30, 60, 20, 2, 1, 2, 1}));
  EXPECT_FALSE(backlog_grew({0, 50, 100}));  // too few samples to judge
}

TEST(Ladder, MaxRateStopsAtFirstFailingRung) {
  const auto rung = [](double rate, double tail, bool grew, std::size_t failed) {
    return Rung{rate, 1000, failed, tail, grew};
  };
  const double limit = 50.0;
  EXPECT_EQ(max_rate({rung(100, 10, false, 0), rung(200, 20, false, 0), rung(300, 80, false, 0),
                      rung(400, 30, false, 0)},
                     limit),
            200.0);
  // Tested out of order, as the search tests them.
  EXPECT_EQ(max_rate({rung(300, 80, false, 0), rung(100, 10, false, 0), rung(200, 20, false, 0)},
                     limit),
            200.0);
  EXPECT_EQ(max_rate({rung(100, 10, false, 0), rung(200, 20, true, 0)}, limit), 100.0);
  EXPECT_EQ(max_rate({rung(100, 10, false, 0), rung(200, 20, false, 1)}, limit), 100.0);
  EXPECT_EQ(max_rate({rung(100, 60, false, 0)}, limit), 0.0);
  // A tail the sample count cannot support does not meet the limit.
  EXPECT_FALSE(rung_meets(Rung{100, 500, 0, std::nullopt, false}, limit));
}

TEST(Ladder, GeometricRungsAndSearchStart) {
  EXPECT_DOUBLE_EQ(ladder_rate(100.0, 1.1, 0), 100.0);
  EXPECT_DOUBLE_EQ(ladder_rate(100.0, 1.1, 2), 121.0);
  EXPECT_NEAR(ladder_rate(100.0, 1.1, -1), 90.909, 1e-3);
  // 0.9 x 140/s = 126/s: rung 2 (121/s) is the highest below it.
  EXPECT_EQ(start_rung(100.0, 1.1, 140.0, 0.9, -5), 2);
  // Capacity below the fixed rate starts the search below it, but never
  // below the lowest rung.
  EXPECT_EQ(start_rung(100.0, 1.1, 100.0, 0.9, -5), -2);
  EXPECT_EQ(start_rung(100.0, 1.1, 10.0, 0.9, -5), -5);
}

TEST(Ladder, SearchClimbsThenBisectsToTheBoundary) {
  // Climb while rungs meet; stop at the first miss above a meeting rung.
  EXPECT_EQ(next_rung({{0, true}, {3, true}}, -7), 4);
  EXPECT_EQ(next_rung({{0, true}, {3, true}, {4, false}}, -7), std::nullopt);
  // After a miss, bisect between the highest meeting rung below it and it.
  EXPECT_EQ(next_rung({{0, true}, {8, false}}, -7), 4);
  EXPECT_EQ(next_rung({{0, true}, {4, true}, {8, false}}, -7), 6);
  EXPECT_EQ(next_rung({{0, true}, {4, true}, {5, false}, {8, false}}, -7), std::nullopt);
  // Down to the fixed rate, which was tested first, and below it if it missed.
  EXPECT_EQ(next_rung({{0, true}, {1, false}}, -7), std::nullopt);
  EXPECT_EQ(next_rung({{0, false}}, -7), -4);
  EXPECT_EQ(next_rung({{-1, true}, {0, false}}, -7), std::nullopt);
  EXPECT_EQ(next_rung({{-7, false}, {0, false}}, -7), std::nullopt);
  // A meeting rung above a miss is noise; the floor stays below the miss.
  EXPECT_EQ(next_rung({{0, true}, {2, false}, {3, true}}, -7), 1);
}

TEST(Stream, DeterministicUnderSeed) {
  const StreamSpec spec{{"brev", "fir", "crc"}, {0, 4}, {2, 8}, 0.25};
  EXPECT_EQ(make_stream(spec, 7, 500), make_stream(spec, 7, 500));
  EXPECT_NE(make_stream(spec, 7, 500), make_stream(spec, 8, 500));
  EXPECT_EQ(due_offsets(100.0, 300, 7), due_offsets(100.0, 300, 7));
  EXPECT_NE(due_offsets(100.0, 300, 7), due_offsets(100.0, 300, 8));
}

TEST(Stream, DecksKeepTheMixBalanced) {
  const StreamSpec spec{{"brev", "fir", "crc"}, {0, 4}, {2, 8}, 0.0};
  const auto keys = key_space(spec);
  ASSERT_EQ(keys.size(), 12u);
  // Without repeats, every whole deck holds each key exactly once.
  const auto stream = make_stream(spec, 3, 5 * keys.size());
  std::map<std::string, int> counts;
  for (const auto& key : stream) {
    ++counts[key.workload + std::to_string(key.packed_width) +
             std::to_string(key.max_candidates)];
  }
  EXPECT_EQ(counts.size(), keys.size());
  for (const auto& [key, count] : counts) EXPECT_EQ(count, 5) << key;
}

TEST(Stream, RepeatsFollowTheirKey) {
  const StreamSpec spec{{"brev", "fir", "crc", "g3fax"}, {0}, {2}, 0.5};
  const auto stream = make_stream(spec, 11, 400);
  ASSERT_EQ(stream.size(), 400u);
  std::size_t repeats = 0;
  for (std::size_t i = 1; i < stream.size(); ++i) repeats += stream[i] == stream[i - 1];
  EXPECT_GT(repeats, 50u);
}

TEST(Stream, DueOffsetsHoldTheRate) {
  const auto due = due_offsets(200.0, 2001, 5);
  EXPECT_EQ(due.front(), 0.0);
  EXPECT_TRUE(std::is_sorted(due.begin(), due.end()));
  EXPECT_NEAR(due.back(), 10.0, 0.3);  // 2000 gaps of 5 ms on average
  for (std::size_t i = 1; i < due.size(); ++i) {
    const double gap = due[i] - due[i - 1];
    EXPECT_GE(gap, 0.0025 - 1e-12);
    EXPECT_LT(gap, 0.0075);
  }
}

TEST(MeanOverWorkloads, IgnoresRepeatCounts) {
  const double v = 0.1 + 0.2;  // not exactly representable
  const double once = mean_over_workloads({{"a", {v}}, {"b", {3.0}}});
  const double many = mean_over_workloads({{"a", std::vector<double>(37, v)}, {"b", {3.0, 3.0}}});
  EXPECT_EQ(once, many);
  EXPECT_EQ(mean_over_workloads({{"a", {1.0, 3.0, 3.0}}}), 2.0);
  EXPECT_EQ(mean_over_workloads({}), 0.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3, 1, 2}), 2.0);
  EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

}  // namespace
}  // namespace ledger
