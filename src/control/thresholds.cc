#include "src/control/thresholds.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/stats.h"

namespace rhythm {

double DeriveLoadlimit(std::span<const double> load_levels, std::span<const double> covs) {
  RHYTHM_CHECK(load_levels.size() == covs.size());
  RHYTHM_CHECK(!load_levels.empty());
  const double avg = Mean(covs);
  // The paper picks "the first load point whose fluctuation is greater than
  // the average". Measured CoV curves carry sampling noise, so we anchor on
  // the *final* upward crossing: the first point of the trailing run where
  // the CoV stays above its average. For a flat curve this lands near the
  // top (a tolerant pod), for a rising curve at the fluctuation knee.
  size_t start_of_run = covs.size();
  for (size_t i = covs.size(); i-- > 0;) {
    if (covs[i] > avg) {
      start_of_run = i;
    } else {
      break;
    }
  }
  if (start_of_run < covs.size()) {
    return load_levels[start_of_run];
  }
  return load_levels.back();
}

std::vector<std::vector<double>> SlacklimitCandidates(
    const std::vector<double>& normalized_contributions, int max_iterations) {
  const size_t n = normalized_contributions.size();
  RHYTHM_CHECK(n > 0);

  std::vector<double> step(n);
  for (size_t i = 0; i < n; ++i) {
    // Small contributors take big steps down (they can afford tiny slack
    // limits); big contributors shrink slowly.
    step[i] = std::clamp(1.0 - normalized_contributions[i], 0.05, 0.99);
  }

  // Candidates are floored at a guard band exceeding the per-second p99
  // jitter amplitude (latency hiccups): a slacklimit below it would let BEs
  // ride within one hiccup of the SLA, which the probe always rejects.
  constexpr double kFloor = 0.12;
  std::vector<std::vector<double>> candidates;
  for (int iter = 1; iter <= max_iterations; ++iter) {
    std::vector<double>& current = candidates.emplace_back(n);
    bool any_above_floor = false;
    for (size_t i = 0; i < n; ++i) {
      current[i] = std::max(kFloor, 1.0 - iter * step[i]);
      if (current[i] > kFloor) {
        any_above_floor = true;
      }
    }
    if (!any_above_floor) {
      break;  // every limit has bottomed out.
    }
  }
  return candidates;
}

std::vector<double> FindSlacklimits(const std::vector<double>& normalized_contributions,
                                    const SlaProbe& probe, int max_iterations) {
  std::vector<double> safe(normalized_contributions.size(), 1.0);  // last SLA-safe setting.
  for (const std::vector<double>& candidate :
       SlacklimitCandidates(normalized_contributions, max_iterations)) {
    if (probe(candidate)) {
      break;  // SLA violated: keep the previous configuration.
    }
    safe = candidate;
  }
  return safe;
}

SpeculativeSlacklimitSearch::SpeculativeSlacklimitSearch(
    const std::vector<double>& normalized_contributions, int max_iterations)
    : pods_(normalized_contributions.size()),
      candidates_(SlacklimitCandidates(normalized_contributions, max_iterations)),
      lowest_violation_(iterations() + 1) {}

void SpeculativeSlacklimitSearch::Violated(int iteration) {
  int lowest = lowest_violation_.load();
  while (iteration < lowest && !lowest_violation_.compare_exchange_weak(lowest, iteration)) {
  }
}

std::vector<double> SpeculativeSlacklimitSearch::Result() const {
  const int safe_iterations = lowest_violation_.load() - 1;
  if (safe_iterations == 0) {
    return std::vector<double>(pods_, 1.0);  // no candidate is safe.
  }
  return candidate(safe_iterations);
}

}  // namespace rhythm
