// Golden bytes for the sim renders: two fixed verify-zelos seeds run with
// digest beacons on and background checkpoint flushes frozen, and every
// schedule-determined render the RunReport carries is compared with
// tests/golden/sim_renders.txt. The replay suites only compare one build's
// run with another run of the same build; this file pins the bytes across
// commits, so a refactor that claims "renders unchanged" is checked against
// the renders of the code before it.
//
// The only masked value is the figure after "sketch bytes: " (a sizeof and
// capacity figure of the build, not of the schedule).
//
// To regenerate after a deliberate render change:
//   DELOS_UPDATE_GOLDEN=1 build/tests/sim_render_golden_test
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/sim/sim_cluster.h"

namespace delos {
namespace {

using sim::RunReport;
using sim::SimCluster;
using sim::SimOptions;

constexpr uint64_t kSeeds[] = {5, 17};

SimOptions GoldenOptions() {
  SimOptions options;
  options.workload = sim::WorkloadKind::kVerifyZelos;
  options.num_servers = 3;
  options.num_ops = 40;
  options.plan.num_ops = 40;
  options.digest_beacon_every = 8;
  // Frozen flushes: a crashed server cold-starts from the log, so applied
  // counts and beacon counters are a pure function of the schedule.
  options.flush_interval_micros = 3'600'000'000;
  options.scratch_dir =
      (std::filesystem::temp_directory_path() / "delos_sim_render_golden").string();
  return options;
}

std::string MaskSketchBytes(std::string text) {
  const std::string marker = "sketch bytes: ";
  for (size_t at = text.find(marker); at != std::string::npos; at = text.find(marker, at)) {
    at += marker.size();
    const size_t eol = text.find('\n', at);
    text.replace(at, (eol == std::string::npos ? text.size() : eol) - at, "N");
  }
  return text;
}

std::string RenderSeed(uint64_t seed) {
  const RunReport report = SimCluster::RunSeed(seed, GoldenOptions());
  std::string out;
  auto section = [&](const char* name, const std::string& body) {
    out += "#### seed " + std::to_string(seed) + " " + name + "\n" + body;
    if (!body.empty() && body.back() != '\n') {
      out += "\n";
    }
  };
  section("summary", report.Summary());
  section("workload_summary", MaskSketchBytes(report.workload_summary));
  section("latency_summary", report.latency_summary);
  section("slow_exemplars", report.slow_exemplars);
  section("divergence_summary", report.divergence_summary);
  section("history_text", report.history_text);
  return out;
}

TEST(SimRenderGoldenTest, RendersMatchTheCommittedGolden) {
  std::string actual;
  for (const uint64_t seed : kSeeds) {
    actual += RenderSeed(seed);
  }
  if (std::getenv("DELOS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream(SIM_RENDER_GOLDEN, std::ios::binary) << actual;
    GTEST_SKIP() << "rewrote " << SIM_RENDER_GOLDEN;
  }
  std::ifstream in(SIM_RENDER_GOLDEN, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden file " << SIM_RENDER_GOLDEN;
  std::stringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(actual, golden.str());
}

}  // namespace
}  // namespace delos
