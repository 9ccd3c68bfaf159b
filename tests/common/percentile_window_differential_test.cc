// Differential test: PercentileWindow (reused scratch buffer + per-timestamp
// memo) against a naive reference that builds a fresh vector and selects
// from scratch on every query. Every quantile answer must match bit for bit
// under randomized adds, expirations, duplicate values, duplicate timestamps
// and interleaved queries.

#include "src/common/percentile_window.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/rng.h"

namespace rhythm {
namespace {

// The reference: FIFO of (time, latency), expire the prefix older than
// now - window, fresh copy + nth_element per query (no memo, no reused
// buffer), same clamp/rank/interpolation arithmetic.
class NaiveWindow {
 public:
  explicit NaiveWindow(double window_seconds) : window_(window_seconds) {}

  void Add(double now, double latency) { samples_.push_back({now, latency}); }

  void Expire(double now) {
    const double cutoff = now - window_;
    size_t keep = 0;
    while (keep < samples_.size() && samples_[keep].time < cutoff) {
      ++keep;
    }
    samples_.erase(samples_.begin(), samples_.begin() + keep);
  }

  double Quantile(double now, double q) {
    Expire(now);
    if (samples_.empty()) {
      return 0.0;
    }
    std::vector<double> values;
    values.reserve(samples_.size());
    for (const Sample& s : samples_) {
      values.push_back(s.latency);
    }
    const double clamped = std::clamp(q, 0.0, 1.0);
    const size_t n = values.size();
    const double rank = clamped * static_cast<double>(n - 1);
    const size_t lo = static_cast<size_t>(rank);
    const double frac = rank - static_cast<double>(lo);
    std::nth_element(values.begin(), values.begin() + lo, values.end());
    const double vlo = values[lo];
    if (frac == 0.0 || lo + 1 >= n) {
      return vlo;
    }
    std::nth_element(values.begin() + lo + 1, values.begin() + lo + 1, values.end());
    const double vhi = values[lo + 1];
    return vlo + frac * (vhi - vlo);
  }

  size_t size() const { return samples_.size(); }

 private:
  struct Sample {
    double time;
    double latency;
  };
  double window_;
  std::vector<Sample> samples_;
};

TEST(PercentileWindowDifferentialTest, RandomizedOpsMatchNaiveReferenceBitForBit) {
  const double kWindow = 5.0;
  PercentileWindow fast(kWindow);
  NaiveWindow slow(kWindow);
  Rng rng(77);
  double now = 0.0;
  const std::vector<double> quantiles = {0.0, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0, -0.5, 1.5};
  for (int step = 0; step < 30000; ++step) {
    // Mostly adds; time advances in small irregular increments with frequent
    // repeats of the exact same timestamp (events at one simulated instant).
    if (rng.Bernoulli(0.3)) {
      now += rng.Exponential(0.01);
    }
    const double r = rng.Uniform(0.0, 1.0);
    if (r < 0.80) {
      // Duplicate latencies are common in practice (quantized work): draw
      // from a small value set part of the time.
      const double latency = rng.Bernoulli(0.25)
                                 ? static_cast<double>(rng.UniformInt(8))
                                 : rng.LognormalMean(20.0, 0.8);
      fast.Add(now, latency);
      slow.Add(now, latency);
    } else if (r < 0.90) {
      fast.Expire(now);
      slow.Expire(now);
      ASSERT_EQ(fast.size(), slow.size()) << "after expire at step " << step;
    } else {
      const double q = quantiles[rng.UniformInt(quantiles.size())];
      const double got = fast.Quantile(now, q);
      const double want = slow.Quantile(now, q);
      ASSERT_EQ(got, want) << "q=" << q << " at step " << step << " n=" << slow.size();
      // Ask again at the same instant: the memo path must return the same
      // bits as the recomputation the reference performs.
      ASSERT_EQ(fast.Quantile(now, q), want);
    }
  }
  EXPECT_GT(fast.query_stats().queries, 0u);
  EXPECT_GT(fast.query_stats().memo_hits, 0u);
}

TEST(PercentileWindowDifferentialTest, ScratchStaysCorrectWhenWindowEmptiesAndRefills) {
  // Adversarial expiration pattern: bursts land at one timestamp, then a
  // long quiet gap expires the whole burst, repeatedly, with queries in
  // between — the scratch buffer left over from a larger window must never
  // leak stale values into a smaller one's selection.
  const double kWindow = 1.0;
  PercentileWindow fast(kWindow);
  NaiveWindow slow(kWindow);
  Rng rng(99);
  double now = 0.0;
  for (int burst = 0; burst < 200; ++burst) {
    const int count = 1 + static_cast<int>(rng.UniformInt(600));
    for (int i = 0; i < count; ++i) {
      const double latency = rng.Exponential(15.0);
      fast.Add(now, latency);
      slow.Add(now, latency);
    }
    const double q = rng.Uniform(0.0, 1.0);
    ASSERT_EQ(fast.Quantile(now, q), slow.Quantile(now, q)) << "burst " << burst;
    now += rng.Bernoulli(0.5) ? 2.5 : 0.4;  // half the gaps expire everything.
  }
}

// -- Pre-filtered selection --------------------------------------------------
// A query selects among the samples at or above a floor carried over from
// the previous query, and falls back to the whole window when fewer samples
// than it needs are that high. The cases below steer the data into each
// branch; every answer must still equal the reference's bit for bit.

void AddBoth(PercentileWindow& fast, NaiveWindow& slow, double now, double latency) {
  fast.Add(now, latency);
  slow.Add(now, latency);
}

void ExpectSameQuantile(PercentileWindow& fast, NaiveWindow& slow, double now, double q) {
  const double want = slow.Quantile(now, q);
  ASSERT_EQ(fast.Quantile(now, q), want) << "q=" << q << " now=" << now << " n=" << slow.size();
}

TEST(PercentileWindowDifferentialTest, SharpLatencyDropFallsBackToTheWholeWindow) {
  // Level shifts by two orders of magnitude: once the high samples expire,
  // every retained sample lies below the floor the high level left behind.
  const double kWindow = 2.0;
  PercentileWindow fast(kWindow);
  NaiveWindow slow(kWindow);
  Rng rng(5);
  const double levels[] = {100.0, 1.0, 500.0, 0.1, 50.0, 0.5};
  double now = 0.0;
  for (const double level : levels) {
    for (int step = 0; step < 600; ++step) {
      now += 0.01;
      for (int i = 0; i < 4; ++i) {
        AddBoth(fast, slow, now, level * (1.0 + rng.Exponential(0.2)));
      }
      if (step % 25 == 0) {
        ExpectSameQuantile(fast, slow, now, 0.99);
        ExpectSameQuantile(fast, slow, now, 0.95);
      }
    }
  }
}

TEST(PercentileWindowDifferentialTest, SamplesEqualToTheFloorAreKept) {
  // Four distinct values, so the carried-over floor is a value that many
  // retained samples share; a sample equal to the floor must stay eligible.
  const double kWindow = 3.0;
  PercentileWindow fast(kWindow);
  NaiveWindow slow(kWindow);
  Rng rng(17);
  const double quantiles[] = {0.99, 0.9, 0.75, 0.99, 0.5};
  double now = 0.0;
  for (int step = 0; step < 20000; ++step) {
    now += rng.Exponential(0.002);
    AddBoth(fast, slow, now, static_cast<double>(rng.UniformInt(4)));
    if (step % 97 == 0) {
      ExpectSameQuantile(fast, slow, now, quantiles[(step / 97) % 5]);
    }
  }
}

TEST(PercentileWindowDifferentialTest, ExtremeAndMiddleQuantilesInBlocks) {
  // Runs of queries at one q, then another: the floor a high q leaves is too
  // high for q = 0 or 0.5, and the one q = 0 leaves keeps everything.
  const double kWindow = 1.5;
  PercentileWindow fast(kWindow);
  NaiveWindow slow(kWindow);
  Rng rng(23);
  const double quantiles[] = {0.0, 0.5, 0.99, 1.0, 0.0, 1.0, 0.99, 0.5, 0.99};
  double now = 0.0;
  for (const double q : quantiles) {
    for (int query = 0; query < 40; ++query) {
      const int adds = static_cast<int>(rng.UniformInt(200));
      for (int i = 0; i < adds; ++i) {
        now += rng.Exponential(0.001);
        AddBoth(fast, slow, now, rng.LognormalMean(20.0, 0.8));
      }
      ExpectSameQuantile(fast, slow, now, q);
    }
  }
}

TEST(PercentileWindowDifferentialTest, OneAndTwoSampleWindows) {
  const double kWindow = 1.0;
  PercentileWindow fast(kWindow);
  NaiveWindow slow(kWindow);
  Rng rng(31);
  const double quantiles[] = {0.0, 0.5, 0.99, 1.0};
  double now = 0.0;
  for (int round = 0; round < 300; ++round) {
    // One sample, then a second at the same instant: equal, above or below.
    const double first = rng.Exponential(10.0);
    AddBoth(fast, slow, now, first);
    for (const double q : quantiles) {
      ExpectSameQuantile(fast, slow, now, q);
    }
    const int shape = static_cast<int>(rng.UniformInt(3));
    const double second = shape == 0 ? first : (shape == 1 ? first * 3.0 : first / 3.0);
    AddBoth(fast, slow, now, second);
    for (const double q : quantiles) {
      ExpectSameQuantile(fast, slow, now, q);
    }
    now += 1.5;  // both expire before the next round.
  }
}

TEST(PercentileWindowDifferentialTest, RefillsFarAboveAndBelowTheOldFloor) {
  // The window empties between bursts and refills at a level far from the
  // last one, with adds and queries interleaved at one instant.
  const double kWindow = 1.0;
  PercentileWindow fast(kWindow);
  NaiveWindow slow(kWindow);
  Rng rng(41);
  double now = 0.0;
  for (int burst = 0; burst < 120; ++burst) {
    const double level = burst % 2 == 0 ? 1000.0 : 0.01;
    for (int part = 0; part < 4; ++part) {
      const int count = 1 + static_cast<int>(rng.UniformInt(300));
      for (int i = 0; i < count; ++i) {
        AddBoth(fast, slow, now, level * rng.Exponential(1.0));
      }
      ExpectSameQuantile(fast, slow, now, 0.99);
    }
    EXPECT_EQ(fast.Quantile(now + 2.0, 0.99), 0.0);  // emptied.
    now += 2.5;
  }
}

}  // namespace
}  // namespace rhythm
