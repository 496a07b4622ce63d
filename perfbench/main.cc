// delos_bench: runs one benchmark workload and prints its metrics.
//
//   delos_bench --workload NAME --seed N --seconds S --trace 0|1
//               --work-dir DIR [--commit ID] [--shared-keys 0|1]
//   delos_bench --selftest
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
// Exit codes: 0 measured; 1 usage; 3 not a measurement (see stderr).
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "checks.h"
#include "deployment.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int Usage(const char* message) {
  std::fprintf(stderr, "delos_bench: %s\n", message);
  std::fprintf(stderr,
               "usage: delos_bench --workload NAME --seed N --seconds S --trace 0|1 "
               "--work-dir DIR [--commit ID] [--shared-keys 0|1]\n       delos_bench --selftest\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      const int wrong = perfbench::RunCheckerSelfTest();
      std::printf("checker self-test: %s\n", wrong == 0 ? "ok" : "FAILED");
      return wrong == 0 ? 0 : 3;
    }
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--shared-keys") {
      config.shared_keys = value == "1";
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  const auto& names = perfbench::WorkloadNames();
  if (!have_workload || std::find(names.begin(), names.end(), config.workload) == names.end()) {
    return Usage("--workload must be one of zelos_light, zelos_saturate, table_indexed, "
                 "zelos_catchup");
  }
  if (config.seconds < 1 || config.work_dir.empty()) {
    return Usage("--seconds must be at least 1 and --work-dir is required");
  }
  const int cores = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  config.threads = std::min(cores, 4);
  std::filesystem::create_directories(config.work_dir);

  std::printf("delos_bench workload=%s seed=%llu seconds=%d trace=%d\n", config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);
  std::printf("  commit=%s build=%s nproc=%d generator_threads<=%d one_way_delay_us=%lld "
              "jitter_us=0 loss=0\n",
              commit.c_str(), PERFBENCH_BUILD_TYPE, cores, config.threads,
              static_cast<long long>(perfbench::kOneWayDelayMicros));
  std::fflush(stdout);

  const perfbench::RunResult result = perfbench::RunWorkload(config);
  std::filesystem::remove_all(config.work_dir);

  std::printf("%s metrics:\n%s", config.trace ? "per-layer" : "end-to-end",
              result.metrics.RenderTable().c_str());
  std::printf("%s:\n%s", config.trace ? "end-to-end, traced" : "also measured, not gated",
              result.extra.RenderTable().c_str());
  std::printf("checks: attempted=%llu failed=%llu\n",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (const std::string& failure : result.failures) {
    std::printf("  failure: %s\n", failure.c_str());
  }
  if (!result.invalid.empty()) {
    for (const std::string& reason : result.invalid) {
      std::fprintf(stderr, "delos_bench: not a measurement: %s\n", reason.c_str());
    }
    std::fflush(stdout);
    return 3;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), result.metrics.RenderJson().c_str());
  return 0;
}
