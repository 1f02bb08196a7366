// Tests for the warpd bench harness (bench/warpd_harness.hpp): the checkers
// every warpd gate trusts. A wait-chain replay that accepts a perturbed
// wait, or a pure-field comparison that ignores a field, would let the
// serving gates pass on a server that breaks the single-DPM contract, so
// each checker is pinned here against hand-built inputs.
#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "warp/warp_system.hpp"
#include "warpd_harness.hpp"

namespace {

using warp::bench::DaemonArgs;
using warp::bench::WaitChain;
using warp::warpsys::MultiWarpEntry;

// The (wait, dpm) chain a healthy daemon reports: each session's wait is the
// virtual DPM clock's busy time when the sequencer reached it. Returned in
// reverse order, as replies arrive in completion order, not wait order.
WaitChain replayed_chain() {
  const std::vector<double> dpm = {0.125, 3.0e-4, 0.0371, 1.0 / 3.0, 2.5e-6, 0.2};
  warp::warpsys::DpmVirtualClock clock;
  WaitChain chain;
  for (const double d : dpm) {
    chain.emplace_back(clock.start(0.0), d);
    clock.finish(d);
  }
  std::reverse(chain.begin(), chain.end());
  return chain;
}

TEST(WaitChain, ExactAcceptsReplayedChain) {
  EXPECT_TRUE(warp::bench::verify_wait_chain(replayed_chain(), /*exact=*/true, "t"));
  EXPECT_TRUE(warp::bench::verify_wait_chain({}, /*exact=*/true, "t"));
}

TEST(WaitChain, ExactRejectsOneUlpPerturbation) {
  for (std::size_t i = 0; i < replayed_chain().size(); ++i) {
    WaitChain chain = replayed_chain();
    chain[i].first = std::nextafter(chain[i].first, std::numeric_limits<double>::infinity());
    EXPECT_FALSE(warp::bench::verify_wait_chain(chain, /*exact=*/true, "t")) << "reply " << i;
  }
}

TEST(WaitChain, LowerBoundAcceptsDroppedReply) {
  // Sorted by wait, the chain is the reverse of replayed_chain().
  WaitChain chain = replayed_chain();
  std::reverse(chain.begin(), chain.end());
  chain.erase(chain.begin() + 2);  // a reply lost to a SIGKILL
  EXPECT_TRUE(warp::bench::verify_wait_chain(chain, /*exact=*/false, "t"));
  // The lost session's busy time shows up as a gap the exact replay rejects.
  EXPECT_FALSE(warp::bench::verify_wait_chain(chain, /*exact=*/true, "t"));
}

TEST(WaitChain, LowerBoundRejectsWaitBelowBound) {
  WaitChain chain = replayed_chain();
  std::reverse(chain.begin(), chain.end());
  // Reply 3 claims to start before reply 2's DPM service finished.
  chain[3].first = chain[2].first + chain[2].second - 1e-6;
  ASSERT_GT(chain[3].first, chain[2].first);  // still sorts in place
  EXPECT_FALSE(warp::bench::verify_wait_chain(chain, /*exact=*/false, "t"));
}

TEST(Percentile, NearestRank) {
  EXPECT_EQ(warp::bench::percentile({}, 50.0), 0.0);
  for (const double p : {0.0, 50.0, 100.0}) {
    EXPECT_EQ(warp::bench::percentile({7.0}, p), 7.0) << p;
  }
  const std::vector<double> values = {5.0, 1.0, 4.0, 2.0, 3.0};  // unsorted on purpose
  EXPECT_EQ(warp::bench::percentile(values, 0.0), 1.0);
  EXPECT_EQ(warp::bench::percentile(values, 20.0), 1.0);  // rank ceil(1.0) = 1
  EXPECT_EQ(warp::bench::percentile(values, 21.0), 2.0);  // rank ceil(1.05) = 2
  EXPECT_EQ(warp::bench::percentile(values, 50.0), 3.0);  // rank ceil(2.5) = 3
  EXPECT_EQ(warp::bench::percentile(values, 100.0), 5.0);
}

TEST(StatsLine, ParsesKeyValueTokens) {
  const auto stats = warp::bench::StatsLine::parse(
      "stats completed=12 junk fault.store.read=2 fault.serve.accept=3 faultless=40 "
      "draining=0");
  EXPECT_EQ(stats.values.size(), 5u);  // "stats" and "junk" are not k=v
  EXPECT_EQ(stats.get("completed"), 12u);
  EXPECT_EQ(stats.get("draining"), 0u);
  EXPECT_EQ(stats.get("stats"), 0u);
  EXPECT_EQ(stats.get("absent"), 0u);
  EXPECT_EQ(stats.sum_prefix("fault."), 5u);
  EXPECT_EQ(stats.sum_prefix("fault"), 45u);
  EXPECT_EQ(stats.sum_prefix("nothing."), 0u);
}

TEST(PureFields, IgnoresOnlyTheWait) {
  MultiWarpEntry base;
  base.name = "brev";
  base.detail = "2 kernels";
  base.sw_seconds = 1.5;
  base.warped_seconds = 0.25;
  base.speedup = 6.0;
  base.dpm_seconds = 0.125;
  base.dpm_wait_seconds = 0.5;
  base.warped = true;

  MultiWarpEntry queued = base;
  queued.dpm_wait_seconds = 9.75;
  EXPECT_TRUE(warp::bench::pure_fields_match(base, queued));

  const std::vector<void (*)(MultiWarpEntry&)> mutations = {
      [](MultiWarpEntry& e) { e.name = "crc"; },
      [](MultiWarpEntry& e) { e.detail = "software"; },
      [](MultiWarpEntry& e) { e.sw_seconds = std::nextafter(e.sw_seconds, 2.0); },
      [](MultiWarpEntry& e) { e.warped_seconds = std::nextafter(e.warped_seconds, 1.0); },
      [](MultiWarpEntry& e) { e.speedup = std::nextafter(e.speedup, 7.0); },
      [](MultiWarpEntry& e) { e.dpm_seconds = std::nextafter(e.dpm_seconds, 1.0); },
      [](MultiWarpEntry& e) { e.warped = false; },
  };
  for (std::size_t i = 0; i < mutations.size(); ++i) {
    MultiWarpEntry changed = base;
    mutations[i](changed);
    EXPECT_FALSE(warp::bench::pure_fields_match(base, changed)) << "field " << i;
  }
}

TEST(DaemonArgv, EmitsOnlyNonDefaultFlags) {
  using Argv = std::vector<std::string>;
  EXPECT_EQ(warp::bench::daemon_argv("--daemon", DaemonArgs{}),
            (Argv{"/proc/self/exe", "--daemon"}));
  DaemonArgs args;
  args.socket = "/tmp/s.sock";
  args.fault_seed = 0;  // seed 0 still arms the injector
  args.workers = 1;
  args.max_queued = 4;
  EXPECT_EQ(warp::bench::daemon_argv("--daemon", args),
            (Argv{"/proc/self/exe", "--daemon", "--socket", "/tmp/s.sock", "--workers", "1",
                  "--fault-seed", "0", "--max-queued", "4"}));
}

}  // namespace
