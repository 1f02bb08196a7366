// Multiprocessor scale-out tests: the threaded Figure-4 engine must be a
// pure host-side optimization. Whatever the worker count or host scheduling,
// the shared-DPM queue is ordered by virtual time, so every MultiWarpEntry
// (waits, speedups, partitions) is bit-identical to the serial reference.
#include <gtest/gtest.h>

#include <cstdio>

#include "experiments/harness.hpp"

namespace warp {
namespace {

using warpsys::DpmQueuePolicy;
using warpsys::MultiWarpEntry;
using warpsys::MultiWarpOptions;

std::vector<MultiWarpEntry> run_mix(const std::vector<std::string>& mix,
                                    const MultiWarpOptions& options) {
  auto built = experiments::build_warp_systems(mix, experiments::default_options());
  EXPECT_TRUE(built.is_ok()) << built.message();
  auto systems = std::move(built).value();
  return warpsys::run_multiprocessor(systems, mix, options);
}

// Field-by-field comparison so a mismatch names the processor and field.
void expect_identical(const std::vector<MultiWarpEntry>& expected,
                      const std::vector<MultiWarpEntry>& actual,
                      const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto& e = expected[i];
    const auto& a = actual[i];
    EXPECT_EQ(e.name, a.name) << label << " cpu" << i;
    EXPECT_EQ(e.detail, a.detail) << label << " cpu" << i;
    EXPECT_EQ(e.sw_seconds, a.sw_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.warped_seconds, a.warped_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.speedup, a.speedup) << label << " cpu" << i;
    EXPECT_EQ(e.dpm_seconds, a.dpm_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.dpm_wait_seconds, a.dpm_wait_seconds) << label << " cpu" << i;
    EXPECT_EQ(e.warped, a.warped) << label << " cpu" << i;
    EXPECT_TRUE(e == a) << label << " cpu" << i;
  }
}

TEST(MultiWarpParallel, MatchesSerialAcrossThreadCounts) {
  const std::vector<std::string> mix = {"brev", "g3fax", "canrdr", "bitmnp", "matmul"};
  MultiWarpOptions serial;
  serial.threads = 1;
  const auto reference = run_mix(mix, serial);
  ASSERT_EQ(reference.size(), mix.size());
  for (const auto& entry : reference) EXPECT_TRUE(entry.warped) << entry.name;

  for (const unsigned threads : {1u, 2u, 5u}) {
    MultiWarpOptions parallel;
    parallel.threads = threads;
    expect_identical(reference, run_mix(mix, parallel),
                     "threads=" + std::to_string(threads));
  }
}

TEST(MultiWarpParallel, RepeatedRunsAreDeterministic) {
  const std::vector<std::string> mix = {"brev", "g3fax", "canrdr"};
  MultiWarpOptions parallel;
  parallel.threads = 3;
  const auto first = run_mix(mix, parallel);
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_identical(first, run_mix(mix, parallel), "repeat " + std::to_string(repeat));
  }
}

TEST(MultiWarpParallel, VirtualTimeOrderBeatsHostCompletionOrder) {
  // cpu0 (matmul) has the longest profiled run of the mix; cpu1 (brev) the
  // shortest. With two workers, cpu1's profile finishes first on the host
  // and files its DPM request first — but round robin serves cpu0 first by
  // virtual time, so cpu1's wait must equal exactly cpu0's job time, and the
  // whole table must match the serial reference. Repeated to give a racy
  // implementation (one serving in host arrival order) every chance to fail.
  const std::vector<std::string> mix = {"matmul", "brev"};
  MultiWarpOptions serial;
  serial.threads = 1;
  const auto reference = run_mix(mix, serial);
  ASSERT_EQ(reference.size(), 2u);
  ASSERT_GT(reference[0].sw_seconds, reference[1].sw_seconds);
  EXPECT_EQ(reference[0].dpm_wait_seconds, 0.0);
  EXPECT_EQ(reference[1].dpm_wait_seconds, reference[0].dpm_seconds * 1e9 * 1e-9);

  MultiWarpOptions parallel;
  parallel.threads = 2;
  for (int repeat = 0; repeat < 5; ++repeat) {
    expect_identical(reference, run_mix(mix, parallel), "contention repeat");
  }
}

TEST(MultiWarpPolicy, FifoServesByVirtualRequestTime) {
  // brev's profile completes at an earlier virtual time than matmul's, so
  // FIFO serves cpu1 (brev) before cpu0 (matmul) even though round robin
  // would do the opposite. Waits under FIFO are queueing delay: zero for the
  // first-served job, and the tail of brev's service for matmul.
  const std::vector<std::string> mix = {"matmul", "brev"};
  MultiWarpOptions fifo;
  fifo.policy = DpmQueuePolicy::kFifo;
  fifo.threads = 1;
  const auto entries = run_mix(mix, fifo);
  ASSERT_EQ(entries.size(), 2u);
  const double r_matmul = entries[0].sw_seconds;
  const double r_brev = entries[1].sw_seconds;
  ASSERT_LT(r_brev, r_matmul);
  EXPECT_EQ(entries[1].dpm_wait_seconds, 0.0);
  const double brev_done = r_brev + entries[1].dpm_seconds;
  const double expected_wait = brev_done > r_matmul ? brev_done - r_matmul : 0.0;
  EXPECT_DOUBLE_EQ(entries[0].dpm_wait_seconds, expected_wait);

  MultiWarpOptions fifo_parallel = fifo;
  fifo_parallel.threads = 2;
  expect_identical(entries, run_mix(mix, fifo_parallel), "fifo parallel");
}

TEST(MultiWarpPolicy, PriorityOverridesIndexOrder) {
  const std::vector<std::string> mix = {"matmul", "brev"};
  MultiWarpOptions priority;
  priority.policy = DpmQueuePolicy::kPriority;
  priority.priorities = {0, 5};  // cpu1 outranks cpu0
  priority.threads = 1;
  const auto entries = run_mix(mix, priority);
  ASSERT_EQ(entries.size(), 2u);
  // cpu1 is served at its request instant; cpu0 queues behind it.
  EXPECT_EQ(entries[1].dpm_wait_seconds, 0.0);
  EXPECT_GT(entries[0].dpm_wait_seconds, 0.0);

  MultiWarpOptions priority_parallel = priority;
  priority_parallel.threads = 2;
  expect_identical(entries, run_mix(mix, priority_parallel), "priority parallel");
}

// brev, an unpartitionable pointer-chasing loop ("chase"), g3fax.
std::vector<std::unique_ptr<warpsys::WarpSystem>> build_chase_mix() {
  const char* chase_source = R"(
    li r2, 0x1000
    li r3, 63
  loop:
    lwi r2, r2, 0       ; follow the chain
    addi r3, r3, -1
    bne r3, loop
    li r4, 0x100
    swi r2, r4, 0
    halt
  )";
  auto chase_init = [](sim::Memory& mem) {
    for (unsigned i = 0; i < 64; ++i) {
      mem.write32(0x1000 + 4 * i, 0x1000 + 4 * ((i + 1) % 64));
    }
  };
  std::vector<std::unique_ptr<warpsys::WarpSystem>> systems;
  for (const char* name : {"brev", "", "g3fax"}) {
    warpsys::WarpSystemConfig config;
    config.cpu = isa::CpuConfig{true, true, false, 85.0};
    config.dpm.synth.csd_max_terms = 2;
    if (*name) {
      const auto& w = workloads::workload_by_name(name);
      auto program = isa::assemble(w.source, config.cpu);
      EXPECT_TRUE(program.is_ok()) << program.message();
      systems.push_back(
          std::make_unique<warpsys::WarpSystem>(program.value(), w.init, config));
    } else {
      auto program = isa::assemble(chase_source, config.cpu);
      EXPECT_TRUE(program.is_ok()) << program.message();
      systems.push_back(
          std::make_unique<warpsys::WarpSystem>(program.value(), chase_init, config));
    }
  }
  return systems;
}

TEST(MultiWarpParallel, UnsuitableSystemFallsBackIdentically) {
  // A pointer-chasing loop cannot be partitioned; sandwiched between
  // warpable systems it must fall back to software (speedup 1.0) with the
  // same entry in both engines, and its failed DPM job must still occupy
  // the shared queue (its time model charges the attempted flow).
  const std::vector<std::string> names = {"brev", "chase", "g3fax"};

  MultiWarpOptions serial;
  serial.threads = 1;
  auto serial_systems = build_chase_mix();
  const auto reference = warpsys::run_multiprocessor(serial_systems, names, serial);
  ASSERT_EQ(reference.size(), 3u);
  EXPECT_TRUE(reference[0].warped);
  EXPECT_FALSE(reference[1].warped);
  EXPECT_EQ(reference[1].speedup, 1.0);
  EXPECT_EQ(reference[1].warped_seconds, reference[1].sw_seconds);
  EXPECT_GT(reference[1].dpm_seconds, 0.0);  // the failed flow is still charged
  EXPECT_TRUE(reference[2].warped);
  // g3fax queues behind brev's and the failed chase job's DPM time.
  EXPECT_GT(reference[2].dpm_wait_seconds, reference[1].dpm_wait_seconds);

  MultiWarpOptions parallel;
  parallel.threads = 16;  // more workers than systems: clamped, not deadlocked
  auto parallel_systems = build_chase_mix();
  expect_identical(reference,
                   warpsys::run_multiprocessor(parallel_systems, names, parallel),
                   "fallback mix");
}

// --- Pinned tables ---------------------------------------------------------
// Every MultiWarpEntry field of the five-workload mix and the chase fallback
// mix under each queue policy, as exact doubles (%.17g round-trips). The
// values were taken from the single-threaded reference loop before the
// threaded engines were merged into one; every engine and thread count must
// reproduce them. On a deliberate result change, each failure prints the
// observed row ready to paste.

struct PinnedEntry {
  const char* name;
  const char* detail;
  double sw_seconds;
  double warped_seconds;
  double speedup;
  double dpm_seconds;
  double dpm_wait_seconds;
  bool warped;
};

const std::vector<std::string> kPinMix = {"brev", "g3fax", "canrdr", "bitmnp", "matmul"};
const std::vector<int> kPinMixPriorities = {1, 4, 0, 4, 2};
const std::vector<std::string> kChaseNames = {"brev", "chase", "g3fax"};
const std::vector<int> kChasePriorities = {0, 2, 1};

std::string exact(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string observed_row(const MultiWarpEntry& e) {
  return "{\"" + e.name + "\", \"" + e.detail + "\", " + exact(e.sw_seconds) + ", " +
         exact(e.warped_seconds) + ", " + exact(e.speedup) + ", " + exact(e.dpm_seconds) +
         ", " + exact(e.dpm_wait_seconds) + ", " + (e.warped ? "true" : "false") + "},";
}

void expect_pinned(const std::vector<PinnedEntry>& pins,
                   const std::vector<MultiWarpEntry>& actual, const std::string& label) {
  std::string rows;
  for (const auto& e : actual) rows += "\n  " + observed_row(e);
  ASSERT_EQ(pins.size(), actual.size()) << label << ", observed rows:" << rows;
  for (std::size_t i = 0; i < pins.size(); ++i) {
    const PinnedEntry& p = pins[i];
    const MultiWarpEntry& a = actual[i];
    const std::string where = label + " cpu" + std::to_string(i) + " ";
    bool same = true;
    auto check_text = [&](const char* field, const std::string& want, const std::string& got) {
      if (want == got) return;
      ADD_FAILURE() << where << field << ": pinned \"" << want << "\", observed \"" << got
                    << "\"";
      same = false;
    };
    auto check_double = [&](const char* field, double want, double got) {
      if (want == got) return;
      ADD_FAILURE() << where << field << ": pinned " << exact(want) << ", observed "
                    << exact(got);
      same = false;
    };
    check_text("name", p.name, a.name);
    check_text("detail", p.detail, a.detail);
    check_double("sw_seconds", p.sw_seconds, a.sw_seconds);
    check_double("warped_seconds", p.warped_seconds, a.warped_seconds);
    check_double("speedup", p.speedup, a.speedup);
    check_double("dpm_seconds", p.dpm_seconds, a.dpm_seconds);
    check_double("dpm_wait_seconds", p.dpm_wait_seconds, a.dpm_wait_seconds);
    if (p.warped != a.warped) {
      ADD_FAILURE() << where << "warped: pinned " << p.warped << ", observed " << a.warped;
      same = false;
    }
    if (!same) ADD_FAILURE() << where << "observed row:\n  " << observed_row(a);
  }
}

MultiWarpOptions pin_options(DpmQueuePolicy policy, const std::vector<int>& priorities,
                             unsigned threads) {
  MultiWarpOptions options;
  options.policy = policy;
  if (policy == DpmQueuePolicy::kPriority) options.priorities = priorities;
  options.threads = threads;
  return options;
}

void expect_mix_pinned(DpmQueuePolicy policy, const std::vector<PinnedEntry>& pins) {
  for (const unsigned threads : {1u, 2u, 16u}) {
    expect_pinned(pins, run_mix(kPinMix, pin_options(policy, kPinMixPriorities, threads)),
                  "threads=" + std::to_string(threads));
  }
}

void expect_chase_pinned(DpmQueuePolicy policy, const std::vector<PinnedEntry>& pins) {
  for (const unsigned threads : {1u, 2u, 16u}) {
    auto systems = build_chase_mix();
    expect_pinned(pins,
                  warpsys::run_multiprocessor(
                      systems, kChaseNames, pin_options(policy, kChasePriorities, threads)),
                  "threads=" + std::to_string(threads));
  }
}

TEST(MultiWarpPins, RoundRobinMix) {
  expect_mix_pinned(DpmQueuePolicy::kRoundRobin, {
      {"brev", "loop 0x9c->0xc (score 83927): selected", 0.0010361176470588234, 6.5517647058823531e-05, 15.814329323038246, 0.010174776470588235, 0, true},
      {"g3fax", "loop 0x28->0x1c (score 34356): selected", 0.00085439999999999995, 0.00026728235294117648, 3.1966195695233064, 0.0018044470588235294, 0.010174776470588235, true},
      {"canrdr", "loop 0x58->0x1c (score 92160): selected", 0.0010065411764705883, 0.00042176470588235293, 2.3864993026499306, 0.0077270588235294115, 0.011979223529411765, true},
      {"bitmnp", "loop 0x54->0x14 (score 49600): selected", 0.00051985882352941176, 0.00012128235294117647, 4.2863517314967501, 0.0040637764705882349, 0.019706282352941178, true},
      {"matmul", "loop 0x44->0x28 (score 68684): selected", 0.0024068000000000002, 0.00086176470588235289, 2.792873720136519, 0.010366800000000001, 0.023770058823529411, true},
  });
}

TEST(MultiWarpPins, FifoMix) {
  expect_mix_pinned(DpmQueuePolicy::kFifo, {
      {"brev", "loop 0x9c->0xc (score 83927): selected", 0.0010361176470588234, 6.5517647058823531e-05, 15.814329323038246, 0.010174776470588235, 0.013079023529411765, true},
      {"g3fax", "loop 0x28->0x1c (score 34356): selected", 0.00085439999999999995, 0.00026728235294117648, 3.1966195695233064, 0.0018044470588235294, 0.0037292352941176469, true},
      {"canrdr", "loop 0x58->0x1c (score 92160): selected", 0.0010065411764705883, 0.00042176470588235293, 2.3864993026499306, 0.0077270588235294115, 0.0053815411764705882, true},
      {"bitmnp", "loop 0x54->0x14 (score 49600): selected", 0.00051985882352941176, 0.00012128235294117647, 4.2863517314967501, 0.0040637764705882349, 0, true},
      {"matmul", "loop 0x44->0x28 (score 68684): selected", 0.0024068000000000002, 0.00086176470588235289, 2.792873720136519, 0.010366800000000001, 0.021883117647058824, true},
  });
}

TEST(MultiWarpPins, PriorityMix) {
  expect_mix_pinned(DpmQueuePolicy::kPriority, {
      {"brev", "loop 0x9c->0xc (score 83927): selected", 0.0010361176470588234, 6.5517647058823531e-05, 15.814329323038246, 0.010174776470588235, 0.016053305882352941, true},
      {"g3fax", "loop 0x28->0x1c (score 34356): selected", 0.00085439999999999995, 0.00026728235294117648, 3.1966195695233064, 0.0018044470588235294, 0, true},
      {"canrdr", "loop 0x58->0x1c (score 92160): selected", 0.0010065411764705883, 0.00042176470588235293, 2.3864993026499306, 0.0077270588235294115, 0.026257658823529411, true},
      {"bitmnp", "loop 0x54->0x14 (score 49600): selected", 0.00051985882352941176, 0.00012128235294117647, 4.2863517314967501, 0.0040637764705882349, 0.0021389882352941172, true},
      {"matmul", "loop 0x44->0x28 (score 68684): selected", 0.0024068000000000002, 0.00086176470588235289, 2.792873720136519, 0.010366800000000001, 0.0043158235294117643, true},
  });
}

TEST(MultiWarpPins, ChaseFallbackRoundRobin) {
  expect_chase_pinned(DpmQueuePolicy::kRoundRobin, {
      {"brev", "loop 0x9c->0xc (score 83927): selected", 0.0010361176470588234, 6.5517647058823531e-05, 15.814329323038246, 0.010174776470588235, 0, true},
      {"chase", "loop 0x10->0x8 (score 372): decompile: register r2 modified in loop, live at exit, and not an induction variable or accumulator", 4.4941176470588239e-06, 4.4941176470588239e-06, 1, 5.6470588235294119e-05, 0.010174776470588235, false},
      {"g3fax", "loop 0x28->0x1c (score 34356): selected", 0.00085439999999999995, 0.00026728235294117648, 3.1966195695233064, 0.0018044470588235294, 0.01023124705882353, true},
  });
}

TEST(MultiWarpPins, ChaseFallbackFifo) {
  expect_chase_pinned(DpmQueuePolicy::kFifo, {
      {"brev", "loop 0x9c->0xc (score 83927): selected", 0.0010361176470588234, 6.5517647058823531e-05, 15.814329323038246, 0.010174776470588235, 0.0016227294117647057, true},
      {"chase", "loop 0x10->0x8 (score 372): decompile: register r2 modified in loop, live at exit, and not an induction variable or accumulator", 4.4941176470588239e-06, 4.4941176470588239e-06, 1, 5.6470588235294119e-05, 0, false},
      {"g3fax", "loop 0x28->0x1c (score 34356): selected", 0.00085439999999999995, 0.00026728235294117648, 3.1966195695233064, 0.0018044470588235294, 0, true},
  });
}

TEST(MultiWarpPins, ChaseFallbackPriority) {
  expect_chase_pinned(DpmQueuePolicy::kPriority, {
      {"brev", "loop 0x9c->0xc (score 83927): selected", 0.0010361176470588234, 6.5517647058823531e-05, 15.814329323038246, 0.010174776470588235, 0.0016227294117647057, true},
      {"chase", "loop 0x10->0x8 (score 372): decompile: register r2 modified in loop, live at exit, and not an induction variable or accumulator", 4.4941176470588239e-06, 4.4941176470588239e-06, 1, 5.6470588235294119e-05, 0, false},
      {"g3fax", "loop 0x28->0x1c (score 34356): selected", 0.00085439999999999995, 0.00026728235294117648, 3.1966195695233064, 0.0018044470588235294, 0, true},
  });
}

// --- Systems that file no DPM job --------------------------------------------

constexpr DpmQueuePolicy kPolicies[] = {DpmQueuePolicy::kRoundRobin, DpmQueuePolicy::kFifo,
                                        DpmQueuePolicy::kPriority};

// Systems for `mix`; where `fails[i]` is set, system i gets a one-instruction
// budget, so its software run fails and it never files a DPM job.
std::vector<MultiWarpEntry> run_with_failures(const std::vector<std::string>& mix,
                                              const std::vector<bool>& fails,
                                              const MultiWarpOptions& options) {
  std::vector<std::unique_ptr<warpsys::WarpSystem>> systems;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    auto harness = experiments::default_options();
    if (fails[i]) harness.system.max_instructions = 1;
    auto built = experiments::build_warp_systems({mix[i]}, harness);
    EXPECT_TRUE(built.is_ok()) << built.message();
    systems.push_back(std::move(std::move(built).value()[0]));
  }
  return warpsys::run_multiprocessor(systems, mix, options);
}

void expect_no_job(const MultiWarpEntry& entry, const std::string& label) {
  EXPECT_EQ(entry.detail, "software run: instruction budget exhausted") << label;
  EXPECT_EQ(entry.dpm_seconds, 0.0) << label;
  EXPECT_EQ(entry.dpm_wait_seconds, 0.0) << label;
  EXPECT_FALSE(entry.warped) << label;
}

TEST(MultiWarpNoJob, SkippedUnderEveryPolicyAndThreadCount) {
  const std::vector<std::string> mix = {"brev", "g3fax", "canrdr", "bitmnp", "matmul"};
  for (const std::vector<bool>& fails : {std::vector<bool>{false, true, false, true, false},
                                         std::vector<bool>{true, false, true, false, true}}) {
    for (const DpmQueuePolicy policy : kPolicies) {
      MultiWarpOptions options;
      options.policy = policy;
      options.priorities = {3, 1, 4, 1, 5};
      options.threads = 1;
      const std::string label = "policy " + std::to_string(static_cast<int>(policy)) +
                                (fails[0] ? ", failing ends" : ", failing middle");
      const auto reference = run_with_failures(mix, fails, options);
      ASSERT_EQ(reference.size(), mix.size()) << label;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        if (fails[i]) {
          expect_no_job(reference[i], label + " cpu" + std::to_string(i));
        } else {
          EXPECT_TRUE(reference[i].warped) << label << " cpu" << i;
        }
      }
      for (const unsigned threads : {2u, 16u}) {
        options.threads = threads;
        expect_identical(reference, run_with_failures(mix, fails, options),
                         label + ", threads=" + std::to_string(threads));
      }
    }
  }
}

TEST(MultiWarpNoJob, AllSoftwareRunsFailingReturnsWithNoDpmJob) {
  const std::vector<std::string> mix = {"brev", "g3fax", "canrdr"};
  const std::vector<bool> fails(mix.size(), true);
  for (const DpmQueuePolicy policy : kPolicies) {
    for (const unsigned threads : {1u, 2u, 16u}) {
      MultiWarpOptions options;
      options.policy = policy;
      options.threads = threads;
      const std::string label = "policy " + std::to_string(static_cast<int>(policy)) +
                                ", threads=" + std::to_string(threads);
      const auto entries = run_with_failures(mix, fails, options);
      ASSERT_EQ(entries.size(), mix.size()) << label;
      for (std::size_t i = 0; i < mix.size(); ++i) {
        expect_no_job(entries[i], label + " cpu" + std::to_string(i));
      }
    }
  }
}

}  // namespace
}  // namespace warp
