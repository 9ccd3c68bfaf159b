#include "src/common/percentile_window.h"

#include <algorithm>

namespace rhythm {

void PercentileWindow::Add(double now, double latency) {
  samples_.push_back(Sample{now, latency});
  memo_valid_ = false;
}

void PercentileWindow::Expire(double now) {
  const double cutoff = now - window_;
  while (!samples_.empty() && samples_.front().time < cutoff) {
    samples_.pop_front();
    memo_valid_ = false;
  }
}

double PercentileWindow::Quantile(double now, double q) {
  Expire(now);
  if (samples_.empty()) {
    return 0.0;
  }
  ++query_stats_.queries;
  if (memo_valid_ && memo_now_ == now && memo_q_ == q) {
    ++query_stats_.memo_hits;
    return memo_value_;
  }
  // Same arithmetic as PercentileInplace (src/common/stats.cc) on the same
  // order statistics — the answers are bit-identical to the sort-based path.
  const double clamped = std::clamp(q, 0.0, 1.0);
  const size_t n = samples_.size();
  const double rank = clamped * static_cast<double>(n - 1);
  const size_t lo = static_cast<size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  // The answer reads ranks lo and lo + 1 only, so the n - lo largest samples
  // decide it. Select among the samples at or above the floor; when fewer
  // than that many are (the latency level dropped), among all of them.
  const size_t need = n - lo;
  scratch_.clear();
  for (const Sample& sample : samples_) {
    if (sample.latency >= floor_) {
      scratch_.push_back(sample.latency);
    }
  }
  if (scratch_.size() < need) {
    scratch_.clear();
    for (const Sample& sample : samples_) {
      scratch_.push_back(sample.latency);
    }
  }
  // Every excluded sample is below every kept one: rank lo of the window is
  // rank k of the kept samples.
  const size_t k = lo - (n - scratch_.size());
  const auto k_it = scratch_.begin() + static_cast<ptrdiff_t>(k);
  std::nth_element(scratch_.begin(), k_it, scratch_.end());
  const double vlo = *k_it;
  double value = vlo;
  if (frac != 0.0 && lo + 1 < n) {
    // nth_element leaves everything above `k` no smaller than it, so the
    // next order statistic is that part's minimum.
    const double vhi = *std::min_element(k_it + 1, scratch_.end());
    value = vlo + frac * (vhi - vlo);
  }
  // The next query's floor: the kept sample `need` ranks below this answer
  // (the lowest kept one when fewer are below it), so the next query keeps
  // about twice what this one needed.
  const auto floor_it = k_it - static_cast<ptrdiff_t>(std::min(k, need));
  std::nth_element(scratch_.begin(), floor_it, k_it);
  floor_ = *floor_it;
  memo_valid_ = true;
  memo_now_ = now;
  memo_q_ = q;
  memo_value_ = value;
  return value;
}

}  // namespace rhythm
