// The benchmark's four workloads and the load generator that drives them.
//
//   zelos_light     Zelos, open loop at 1,000 ops/s, 50% SetData / 50% GetData
//   zelos_saturate  the same stack and mix, closed loop with 256 callers
//   table_indexed   DelosTable, closed loop with 16 callers: 30% Upsert that
//                   moves the secondary-index entry, 35% Get, 35% IndexLookup
//   zelos_catchup   two Zelos replicas: one crashes, the other commits a fixed
//                   backlog, the first restarts from its checkpoint and replays
//
// See perfbench/NOTES.md for why each exists and what each metric predicts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Scratch directory for checkpoint files (created and removed by the run).
  std::string work_dir;
  // Generator threads for closed loops (at most the machine's cores).
  int threads = 4;
  // Let reads and writes share keys (see Keys in workloads.cc); exposes a
  // known snapshot race, so such runs report failed reads.
  bool shared_keys = false;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // A run whose generator could not keep its schedule is not a measurement.
  std::vector<std::string> invalid;
  std::vector<std::string> failures;  // first few failure reasons
  MetricSheet metrics;                // end-to-end (trace 0) or per-layer (trace 1)
  MetricSheet extra;                  // printed for humans only
};

const std::vector<std::string>& WorkloadNames();

// Runs one workload: set-up (repeated, median reported), the measured load,
// and the checks. With config.trace, runs the untraced measurement and then
// a traced one, and reports the traced run's per-layer metrics plus the
// tracing overhead between the two.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench
