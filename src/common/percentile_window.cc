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
  scratch_.clear();
  for (const Sample& sample : samples_) {
    scratch_.push_back(sample.latency);
  }
  const auto lo_it = scratch_.begin() + static_cast<ptrdiff_t>(lo);
  std::nth_element(scratch_.begin(), lo_it, scratch_.end());
  const double vlo = *lo_it;
  double value = vlo;
  if (frac != 0.0 && lo + 1 < n) {
    // nth_element leaves everything above `lo` no smaller than it, so the
    // next order statistic is that part's minimum.
    const double vhi = *std::min_element(lo_it + 1, scratch_.end());
    value = vlo + frac * (vhi - vlo);
  }
  memo_valid_ = true;
  memo_now_ = now;
  memo_q_ = q;
  memo_value_ = value;
  return value;
}

}  // namespace rhythm
