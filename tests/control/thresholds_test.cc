#include "src/control/thresholds.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/common/rng.h"

namespace rhythm {
namespace {

TEST(DeriveLoadlimitTest, RisingCurveCrossesAtKnee) {
  const std::vector<double> levels = {0.2, 0.4, 0.6, 0.8, 1.0};
  // Flat at 0.1 then rising: average ~0.26; the trailing run above average
  // starts at 0.8.
  const std::vector<double> covs = {0.1, 0.1, 0.1, 0.4, 0.6};
  EXPECT_DOUBLE_EQ(DeriveLoadlimit(levels, covs), 0.8);
}

TEST(DeriveLoadlimitTest, LateKnee) {
  const std::vector<double> levels = {0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<double> covs = {0.1, 0.1, 0.1, 0.1, 0.9};
  EXPECT_DOUBLE_EQ(DeriveLoadlimit(levels, covs), 1.0);
}

TEST(DeriveLoadlimitTest, FlatCurveGivesLastLevel) {
  const std::vector<double> levels = {0.2, 0.4, 0.6, 0.8, 1.0};
  const std::vector<double> covs = {0.3, 0.3, 0.3, 0.3, 0.3};
  // Never strictly above the mean: the pod tolerates everything.
  EXPECT_DOUBLE_EQ(DeriveLoadlimit(levels, covs), 1.0);
}

TEST(DeriveLoadlimitTest, NoisyDipDoesNotBreakTrailingRun) {
  const std::vector<double> levels = {0.2, 0.4, 0.6, 0.8, 1.0};
  // An early noise spike above average must not pull the limit down when the
  // curve dips back below average afterwards.
  const std::vector<double> covs = {0.35, 0.1, 0.1, 0.5, 0.7};
  EXPECT_DOUBLE_EQ(DeriveLoadlimit(levels, covs), 0.8);
}

TEST(FindSlacklimitsTest, ViolationAtFirstIterationKeepsOnes) {
  const std::vector<double> contributions = {0.5, 0.5};
  const SlaProbe always_violates = [](const std::vector<double>&) { return true; };
  const auto limits = FindSlacklimits(contributions, always_violates);
  EXPECT_DOUBLE_EQ(limits[0], 1.0);
  EXPECT_DOUBLE_EQ(limits[1], 1.0);
}

TEST(FindSlacklimitsTest, NoViolationDrivesToFloor) {
  const std::vector<double> contributions = {0.5, 0.5};
  const SlaProbe never_violates = [](const std::vector<double>&) { return false; };
  const auto limits = FindSlacklimits(contributions, never_violates);
  EXPECT_DOUBLE_EQ(limits[0], 0.12);
  EXPECT_DOUBLE_EQ(limits[1], 0.12);
}

TEST(FindSlacklimitsTest, StepSizesFollowContributions) {
  // Big contributor steps slowly (keeps a large limit), small contributor
  // races to the floor — Algorithm 1's core asymmetry.
  const std::vector<double> contributions = {0.9, 0.1};
  int calls = 0;
  const SlaProbe violate_on_third = [&calls](const std::vector<double>&) {
    return ++calls >= 3;
  };
  const auto limits = FindSlacklimits(contributions, violate_on_third);
  // Iteration k: limit_i = 1 - k * (1 - c_i). Violation at k=3 keeps k=2.
  EXPECT_NEAR(limits[0], 1.0 - 2.0 * 0.1, 1e-12);
  EXPECT_NEAR(limits[1], 0.12, 1e-12);  // floored.
  EXPECT_GT(limits[0], limits[1]);
}

TEST(FindSlacklimitsTest, ProbeSeesMonotoneCandidates) {
  const std::vector<double> contributions = {0.6, 0.4};
  std::vector<std::vector<double>> seen;
  const SlaProbe record = [&seen](const std::vector<double>& limits) {
    seen.push_back(limits);
    return seen.size() >= 4;
  };
  FindSlacklimits(contributions, record);
  for (size_t i = 1; i < seen.size(); ++i) {
    EXPECT_LE(seen[i][0], seen[i - 1][0]);
    EXPECT_LE(seen[i][1], seen[i - 1][1]);
  }
}

TEST(FindSlacklimitsTest, RespectsMaxIterations) {
  const std::vector<double> contributions = {0.999};  // tiny step 0.05 (clamped).
  int calls = 0;
  const SlaProbe count = [&calls](const std::vector<double>&) {
    ++calls;
    return false;
  };
  FindSlacklimits(contributions, count, 5);
  EXPECT_EQ(calls, 5);
}

TEST(SlacklimitCandidatesTest, EndAtTheFloorCapOrMaxIterations) {
  // Steps 0.5 and 0.3: every limit reaches the 0.12 floor at iteration 3.
  const std::vector<double> contributions = {0.5, 0.7};
  const auto capped = SlacklimitCandidates(contributions, 20);
  ASSERT_EQ(capped.size(), 3u);
  EXPECT_DOUBLE_EQ(capped[0][0], 0.5);
  EXPECT_DOUBLE_EQ(capped[0][1], 0.7);
  EXPECT_DOUBLE_EQ(capped[1][1], 0.4);
  EXPECT_DOUBLE_EQ(capped[2][0], 0.12);
  EXPECT_DOUBLE_EQ(capped[2][1], 0.12);
  EXPECT_EQ(SlacklimitCandidates(contributions, 2).size(), 2u);
  EXPECT_TRUE(SlacklimitCandidates(contributions, 0).empty());
}

// Drives SpeculativeSlacklimitSearch the way a derivation plan does, with
// no simulation: `probes` probes per candidate iteration, claimed in
// iteration order by `width` workers that finish in a random order, over a
// random set of violating (iteration, probe) pairs. Each case must return
// exactly what the serial FindSlacklimits returns with a probe reading the
// same violation set.
TEST(SpeculativeSlacklimitSearchTest, EqualsTheSerialSearchForAnyOrderAndWidth) {
  Rng rng(20260417);
  // Cases whose candidates end at the floor cap before max_iterations, end
  // at max_iterations, and whose serial search stopped at a violation.
  int capped = 0;
  int uncapped = 0;
  int stopped = 0;
  for (int trial = 0; trial < 3000; ++trial) {
    SCOPED_TRACE(trial);
    const size_t pods = 1 + rng.UniformInt(6);
    std::vector<double> contributions(pods);
    double total = 0.0;
    for (double& c : contributions) {
      c = rng.Uniform(0.01, 1.0);
      total += c;
    }
    for (double& c : contributions) {
      c /= total;
    }
    const int max_iterations = static_cast<int>(rng.UniformInt(21));  // 0..20.
    const int kProbeCounts[] = {0, 1, 4};
    const int probes = kProbeCounts[rng.UniformInt(3)];
    const double density = rng.Uniform(0.0, 0.4);
    // violates[i][j]: probe j of iteration i + 1 breaks the SLA.
    std::vector<std::vector<bool>> violates(static_cast<size_t>(max_iterations));
    for (std::vector<bool>& row : violates) {
      for (int j = 0; j < probes; ++j) {
        row.push_back(rng.NextDouble() < density);
      }
    }

    std::vector<std::vector<double>> serial_candidates;
    bool serial_stopped = false;
    const SlaProbe serial_probe = [&](const std::vector<double>& limits) {
      serial_candidates.push_back(limits);
      for (bool violated : violates[serial_candidates.size() - 1]) {
        if (violated) {
          serial_stopped = true;
          return true;
        }
      }
      return false;
    };
    const std::vector<double> serial =
        FindSlacklimits(contributions, serial_probe, max_iterations);

    SpeculativeSlacklimitSearch search(contributions, max_iterations);
    ASSERT_GE(search.iterations(), static_cast<int>(serial_candidates.size()));
    for (size_t i = 0; i < serial_candidates.size(); ++i) {
      EXPECT_EQ(search.candidate(static_cast<int>(i) + 1), serial_candidates[i]);
    }
    struct Task {
      int iteration;
      int probe;
    };
    std::vector<Task> tasks;
    for (int iteration = 1; iteration <= search.iterations(); ++iteration) {
      for (int probe = 0; probe < probes; ++probe) {
        tasks.push_back({iteration, probe});
      }
    }
    const size_t width = 1 + rng.UniformInt(6);
    size_t next = 0;
    std::vector<Task> running;
    for (;;) {
      while (running.size() < width && next < tasks.size()) {
        const Task task = tasks[next++];
        if (search.Open(task.iteration)) {
          running.push_back(task);
        }
      }
      if (running.empty()) {
        break;
      }
      const size_t done = rng.UniformInt(running.size());
      const Task task = running[done];
      running.erase(running.begin() + static_cast<std::ptrdiff_t>(done));
      if (violates[static_cast<size_t>(task.iteration - 1)][static_cast<size_t>(task.probe)]) {
        search.Violated(task.iteration);
      }
    }
    EXPECT_EQ(search.Result(), serial);
    capped += search.iterations() < max_iterations;
    uncapped += max_iterations > 0 && search.iterations() == max_iterations;
    stopped += serial_stopped;
  }
  EXPECT_GT(capped, 100);
  EXPECT_GT(uncapped, 100);
  EXPECT_GT(stopped, 100);
}

}  // namespace
}  // namespace rhythm
