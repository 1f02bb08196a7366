// ledger: the repository's end-to-end and per-layer performance benchmark.
//
//   ledger --workload <paper_flow|serve_warm> --seed <n>
//          --seconds <s> --trace <0|1>
//
// Prints one facts line, any notes (the rung table; with --trace 1 the
// layer attribution table), and as its last line the result object
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones. README.md in this
// directory explains the workloads and metrics.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#include "common/strings.hpp"
#include "ledger.hpp"

#ifndef LEDGER_BUILD_TYPE
#define LEDGER_BUILD_TYPE "unknown"
#endif
#ifndef LEDGER_WARP_NATIVE
#define LEDGER_WARP_NATIVE 0
#endif

namespace ledger {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(double value) {
  return std::isfinite(value) ? warp::common::format("%.17g", value) : std::string("null");
}

void usage() {
  std::fprintf(stderr,
               "usage: ledger --workload <paper_flow|serve_warm> --seed <n> "
               "--seconds <s> --trace <0|1>\n");
}

}  // namespace

void Report::fact_num(const std::string& key, double value) {
  facts.emplace_back(key, json_number(value));
}
void Report::fact_str(const std::string& key, const std::string& value) {
  facts.emplace_back(key, json_string(value));
}
void Report::fact_bool(const std::string& key, bool value) {
  facts.emplace_back(key, value ? "true" : "false");
}

}  // namespace ledger

int main(int argc, char** argv) {
  using namespace ledger;
  if (argc > 1 && std::string(argv[1]) == "--daemon") return daemon_main(argc, argv);

  Args args;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (key == "--trace" && (value == "0" || value == "1")) {
      args.trace = value == "1";
    } else {
      usage();
      return 2;
    }
    if (end != nullptr && *end != '\0') {
      usage();
      return 2;
    }
  }
  if (argc % 2 != 1 || !have_workload || !(args.seconds > 0.0) ||
      (args.workload != "paper_flow" && !is_serve_workload(args.workload))) {
    usage();
    return 2;
  }

  // Sockets and stores live under the build directory of the checkout.
  args.run_dir = ".bench_build/ledger-run/" + std::to_string(::getpid());
  std::filesystem::remove_all(args.run_dir);
  std::filesystem::create_directories(args.run_dir);
  Report report;
  try {
    report = args.workload == "paper_flow" ? run_paper_flow(args) : run_serve(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ledger: %s\n", e.what());
    std::filesystem::remove_all(args.run_dir);
    return 1;
  }
  std::filesystem::remove_all(args.run_dir);

#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  std::vector<std::pair<std::string, std::string>> facts = {
      {"workload", json_string(args.workload)},
      {"seed", std::to_string(args.seed)},
      {"seed_role", json_string(args.seed == kTuningSeed     ? "tuning"
                                : args.seed == kHeldOutSeed ? "held-out"
                                                            : "other")},
      {"run_seconds", json_number(args.seconds)},
      {"trace", args.trace ? "true" : "false"},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"build_type", json_string(LEDGER_BUILD_TYPE)},
      {"warp_native", LEDGER_WARP_NATIVE ? "true" : "false"},
      {"compiler", json_string(compiler)},
  };
  facts.insert(facts.end(), report.facts.begin(), report.facts.end());
  std::string line = "{\"facts\": {";
  for (std::size_t i = 0; i < facts.size(); ++i) {
    line += (i ? ", " : "") + json_string(facts[i].first) + ": " + facts[i].second;
  }
  std::printf("%s}}\n", line.c_str());
  for (const auto& note : report.notes) std::printf("%s\n", note.c_str());

  line = warp::common::format("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                              "\"metrics\": {",
                              report.correct ? "true" : "false",
                              static_cast<unsigned long long>(report.attempted),
                              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    line += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " + json_number(m.value) +
            ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  return 0;
}
