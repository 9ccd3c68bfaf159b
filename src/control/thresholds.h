// Threshold derivation (paper §3.5.1).
//
// loadlimit: the "switch" — the LC load above which no BE may run with this
// Servpod. Chosen as the first load level whose sojourn-time CoV exceeds the
// average CoV across levels (Figure 8).
//
// slacklimit: the lower bound of tail-latency slack that still allows BE
// growth, found by Algorithm 1: every pod's limit starts at 1.0 and walks
// down by its own step size (1 - C_i / Σ C), the system runs with mixed BEs
// at each candidate setting, and the last SLA-safe setting wins.

#ifndef RHYTHM_SRC_CONTROL_THRESHOLDS_H_
#define RHYTHM_SRC_CONTROL_THRESHOLDS_H_

#include <atomic>
#include <functional>
#include <span>
#include <vector>

namespace rhythm {

struct ServpodThresholds {
  double loadlimit = 0.85;
  double slacklimit = 0.10;
};

// loadlimit from a CoV-versus-load curve: the first load level whose CoV is
// strictly greater than the mean CoV across all levels. Falls back to the
// last level when the curve never crosses its mean (a flat, tolerant pod).
double DeriveLoadlimit(std::span<const double> load_levels, std::span<const double> covs);

// Runs the system for a probing window at the candidate per-pod slacklimits;
// returns true when the SLA was violated during the window.
using SlaProbe = std::function<bool(const std::vector<double>& slacklimits)>;

// Algorithm 1's candidate limits, one row per iteration: row i-1 holds
// iteration i's per-pod slacklimits, each pod stepping down from 1.0 by its
// own step (1 - C_i / Σ C, clamped to [0.05, 0.99]) to a 0.12 floor. The
// rows end at max_iterations or at the first iteration where every limit
// sits at the floor, whichever comes first. Pure: a row depends only on its
// iteration and the contributions, so every iteration can be probed in any
// order.
std::vector<std::vector<double>> SlacklimitCandidates(
    const std::vector<double>& normalized_contributions, int max_iterations);

// Algorithm 1, coordinated across pods, as a serial search: probe each
// candidate in iteration order until the probe reports a violation, and
// return the last safe limits (all 1.0 when the first candidate violates).
// The reference the speculative search below must equal.
std::vector<double> FindSlacklimits(const std::vector<double>& normalized_contributions,
                                    const SlaProbe& probe, int max_iterations = 32);

// The stop-and-select rule of Algorithm 1 run speculatively: the probes of
// every candidate iteration may run at once, in any order, on any thread.
// A worker asks Open(i) before probing iteration i (1-based) and skips the
// probe when it is false; a violating probe reports Violated(i). Once every
// probe that was opened has reported, Result() is the candidate of the
// iteration just before the lowest violating one: FindSlacklimits's answer
// for the same verdicts, because every iteration below that one ran all of
// its probes and none violated. Open and Violated are thread-safe.
class SpeculativeSlacklimitSearch {
 public:
  SpeculativeSlacklimitSearch(const std::vector<double>& normalized_contributions,
                              int max_iterations);

  SpeculativeSlacklimitSearch(const SpeculativeSlacklimitSearch&) = delete;
  SpeculativeSlacklimitSearch& operator=(const SpeculativeSlacklimitSearch&) = delete;

  int iterations() const { return static_cast<int>(candidates_.size()); }
  const std::vector<double>& candidate(int iteration) const {
    return candidates_[static_cast<size_t>(iteration - 1)];
  }
  // False once a probe of iteration `iteration` or below has violated: its
  // verdict can no longer change the result.
  bool Open(int iteration) const {
    return iteration < lowest_violation_.load();
  }
  void Violated(int iteration);
  std::vector<double> Result() const;

 private:
  const size_t pods_;
  const std::vector<std::vector<double>> candidates_;
  std::atomic<int> lowest_violation_;  // iterations() + 1 while none violated.
};

}  // namespace rhythm

#endif  // RHYTHM_SRC_CONTROL_THRESHOLDS_H_
