#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

#include "stats/descriptive.hpp"
#include "stats/intervals.hpp"
#include "stats/rng.hpp"
#include "stats/sampling.hpp"

namespace sfi::stats {
namespace {

TEST(Rng, SplitMixDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroDeterministicPerSeed) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  Xoshiro256 c(8);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    const u64 va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

TEST(Rng, BelowIsInRange) {
  Xoshiro256 rng(123);
  for (const u64 bound : {u64{1}, u64{2}, u64{7}, u64{350000}, ~u64{0}}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowRejectsZero) {
  Xoshiro256 rng(1);
  EXPECT_THROW((void)rng.below(0), InternalError);
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BelowRoughlyUniform) {
  Xoshiro256 rng(99);
  std::array<int, 10> buckets{};
  const int n = 100000;
  for (int i = 0; i < n; ++i) buckets[rng.below(10)]++;
  for (const int b : buckets) {
    EXPECT_NEAR(b, n / 10, n / 10 * 0.15);
  }
}

TEST(Rng, DerivedSeedsDiffer) {
  std::set<u64> seeds;
  for (u64 i = 0; i < 1000; ++i) seeds.insert(derive_seed(42, i));
  EXPECT_EQ(seeds.size(), 1000u);
}

TEST(Descriptive, SummaryBasics) {
  const std::vector<double> xs = {2, 4, 4, 4, 5, 5, 7, 9};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 8u);
  EXPECT_DOUBLE_EQ(s.mean, 5.0);
  EXPECT_NEAR(s.stddev, std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_EQ(s.min, 2.0);
  EXPECT_EQ(s.max, 9.0);
}

TEST(Descriptive, StddevOverMean) {
  Summary s;
  s.mean = 0.0;
  EXPECT_EQ(s.stddev_over_mean(), 0.0);
  s.mean = 2.0;
  s.stddev = 1.0;
  EXPECT_DOUBLE_EQ(s.stddev_over_mean(), 0.5);
}

TEST(Descriptive, RunningMatchesBatch) {
  Xoshiro256 rng(3);
  std::vector<double> xs;
  RunningStats rs;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 100.0;
    xs.push_back(x);
    rs.add(x);
  }
  const Summary a = summarize(xs);
  const Summary b = rs.summary();
  EXPECT_EQ(a.n, b.n);
  EXPECT_NEAR(a.mean, b.mean, 1e-9);
  EXPECT_NEAR(a.stddev, b.stddev, 1e-9);
}

TEST(Descriptive, SingleElement) {
  const std::vector<double> xs = {3.5};
  const Summary s = summarize(xs);
  EXPECT_EQ(s.n, 1u);
  EXPECT_EQ(s.stddev, 0.0);
  EXPECT_EQ(s.mean, 3.5);
}

TEST(Descriptive, Percentile) {
  std::vector<double> xs;
  for (int i = 1; i <= 100; ++i) xs.push_back(i);
  EXPECT_EQ(percentile(xs, 50), 50.0);
  EXPECT_EQ(percentile(xs, 100), 100.0);
  EXPECT_EQ(percentile(xs, 0), 1.0);
  EXPECT_THROW((void)percentile({}, 50), UsageError);
}

TEST(Intervals, WilsonContainsTruthMostly) {
  // Proportion estimation: the 95% interval should cover the truth.
  Xoshiro256 rng(17);
  const double p = 0.05;
  int covered = 0;
  const int trials = 200;
  for (int t = 0; t < trials; ++t) {
    std::size_t hits = 0;
    const std::size_t n = 2000;
    for (std::size_t i = 0; i < n; ++i) {
      if (rng.chance(p)) ++hits;
    }
    if (wilson(hits, n).contains(p)) ++covered;
  }
  EXPECT_GT(covered, trials * 0.88);
}

TEST(Intervals, WilsonDegenerateCases) {
  const Interval zero = wilson(0, 100);
  EXPECT_EQ(zero.low, 0.0);
  EXPECT_GT(zero.high, 0.0);
  const Interval all = wilson(100, 100);
  EXPECT_NEAR(all.high, 1.0, 1e-12);
  EXPECT_LT(all.low, 1.0);
}

TEST(Intervals, WilsonNarrowsWithN) {
  EXPECT_GT(wilson(5, 100).width(), wilson(50, 1000).width());
}

TEST(Intervals, ZForConfidenceReferenceValues) {
  // Reference quantiles to a tolerance well inside the Acklam+Halley
  // accuracy (~1e-15 relative).
  EXPECT_NEAR(z_for_confidence(0.90), 1.6448536269514722, 1e-9);
  EXPECT_NEAR(z_for_confidence(0.95), 1.9599639845400545, 1e-9);
  EXPECT_NEAR(z_for_confidence(0.99), 2.5758293035489004, 1e-9);
  EXPECT_NEAR(z_for_confidence(0.999), 3.2905267314919255, 1e-9);
  // The default-z wilson overloads are exactly the 95% quantile — the
  // tables the CLI prints without --confidence are unchanged semantics.
  EXPECT_NEAR(z_for_confidence(kDefaultConfidence), 1.959964, 1e-6);
}

TEST(Intervals, ZForConfidenceMonotonicAndInverse) {
  double prev = 0.0;
  for (double c = 0.05; c < 0.999; c += 0.01) {
    const double z = z_for_confidence(c);
    EXPECT_GT(z, prev);
    prev = z;
    // Round-trip through the normal CDF: P(|Z| <= z) == c.
    const double cdf = 0.5 * std::erfc(-z / std::sqrt(2.0));
    EXPECT_NEAR(2.0 * cdf - 1.0, c, 1e-12);
  }
}

TEST(Intervals, ZForConfidenceRejectsOutOfRange) {
  EXPECT_THROW((void)z_for_confidence(0.0), UsageError);
  EXPECT_THROW((void)z_for_confidence(1.0), UsageError);
  EXPECT_THROW((void)z_for_confidence(-0.5), UsageError);
  EXPECT_THROW((void)z_for_confidence(1.5), UsageError);
}

TEST(Intervals, WilsonRespectsExplicitZ) {
  // A 99% interval is strictly wider than a 95% one on the same counts.
  const Interval z95 = wilson(50, 1000, z_for_confidence(0.95));
  const Interval z99 = wilson(50, 1000, z_for_confidence(0.99));
  EXPECT_GT(z99.width(), z95.width());
  EXPECT_LE(z99.low, z95.low);
  EXPECT_GE(z99.high, z95.high);
}

TEST(Intervals, RequiredSampleSize) {
  const std::size_t n = required_sample_size(0.05, 0.01);
  // Expect in the vicinity of z^2 p(1-p)/w^2 ≈ 1825.
  EXPECT_GT(n, 1000u);
  EXPECT_LT(n, 6000u);
  // Verify the produced n actually achieves the width.
  const auto hits = static_cast<std::size_t>(0.05 * static_cast<double>(n));
  EXPECT_LE(wilson(hits, n).width() / 2.0, 0.0105);
}

TEST(Intervals, RequiredSampleSizeEdgeCases) {
  // p == 0 / p == 1: the sampling-variance term vanishes, but the variance
  // floor plus the exact Wilson verification still yield a finite answer,
  // symmetric across the two degenerate ends.
  EXPECT_EQ(required_sample_size(0.0, 0.01), 204u);
  EXPECT_EQ(required_sample_size(1.0, 0.01), 204u);
  EXPECT_EQ(required_sample_size(0.0, 0.001), 2113u);
  // A Wilson interval is confined to [0,1], so its half-width never exceeds
  // 0.5: any target that loose is met by a single observation.
  EXPECT_EQ(required_sample_size(0.3, 0.5), 1u);
  EXPECT_EQ(required_sample_size(0.5, 0.7), 1u);
  // Invalid inputs reject instead of looping or overflowing.
  EXPECT_THROW((void)required_sample_size(-0.1, 0.01), UsageError);
  EXPECT_THROW((void)required_sample_size(1.1, 0.01), UsageError);
  EXPECT_THROW((void)required_sample_size(0.5, 0.0), UsageError);
  EXPECT_THROW((void)required_sample_size(0.5, -0.01), UsageError);
  EXPECT_THROW((void)required_sample_size(0.5, 0.01, 0.0), UsageError);
  // Absurdly tight targets saturate instead of invoking UB in the
  // float->int cast.
  EXPECT_GT(required_sample_size(0.5, 1e-12), u64{1} << 40);
}

TEST(Intervals, RequiredSampleSizeTableOneScale) {
  // Proportions at the scale of the paper's Table 1, sized for the
  // campaign-report precision of ±1% at 95% confidence: a few thousand
  // flips suffice — the analytical form of the "10k flips" observation.
  EXPECT_EQ(required_sample_size(0.87, 0.01), 4888u);   // Vanished-scale
  EXPECT_EQ(required_sample_size(0.125, 0.01), 4202u);  // Corrected-scale
  EXPECT_EQ(required_sample_size(0.05, 0.01), 2053u);
  // Rare severe outcomes at matching relative precision.
  EXPECT_EQ(required_sample_size(0.005, 0.002), 5375u);
  // Tightening the target never shrinks the requirement.
  EXPECT_GE(required_sample_size(0.1, 0.005),
            required_sample_size(0.1, 0.01));
}

TEST(Sampling, WithoutReplacementBasics) {
  Xoshiro256 rng(11);
  const auto s = sample_without_replacement(1000, 100, rng);
  EXPECT_EQ(s.size(), 100u);
  std::set<u64> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 100u);
  for (const u64 v : s) EXPECT_LT(v, 1000u);
}

TEST(Sampling, WithoutReplacementDense) {
  Xoshiro256 rng(12);
  const auto s = sample_without_replacement(100, 90, rng);
  std::set<u64> uniq(s.begin(), s.end());
  EXPECT_EQ(uniq.size(), 90u);
}

TEST(Sampling, WithoutReplacementFull) {
  // k == n must yield a permutation of [0, n): every value exactly once.
  Xoshiro256 rng(13);
  const auto s = sample_without_replacement(50, 50, rng);
  std::set<u64> uniq(s.begin(), s.end());
  ASSERT_EQ(uniq.size(), 50u);
  EXPECT_EQ(*uniq.begin(), 0u);
  EXPECT_EQ(*uniq.rbegin(), 49u);
}

TEST(Sampling, WithoutReplacementKZero) {
  // k == 0 is a valid request (an empty campaign stratum), not an error —
  // and it must not consume entropy, so draws after it are unperturbed.
  Xoshiro256 rng(15);
  Xoshiro256 ref(15);
  EXPECT_TRUE(sample_without_replacement(0, 0, rng).empty());
  EXPECT_TRUE(sample_without_replacement(64, 0, rng).empty());
  EXPECT_EQ(rng.next(), ref.next());
}

TEST(Sampling, WithoutReplacementRejectsOversample) {
  Xoshiro256 rng(14);
  EXPECT_THROW((void)sample_without_replacement(10, 11, rng), UsageError);
}

TEST(Sampling, WithoutReplacementUnbiased) {
  // Each element should appear with roughly equal frequency.
  Xoshiro256 rng(15);
  std::array<int, 20> counts{};
  for (int t = 0; t < 4000; ++t) {
    for (const u64 v : sample_without_replacement(20, 5, rng)) counts[v]++;
  }
  for (const int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(Sampling, WeightedIndex) {
  Xoshiro256 rng(16);
  const std::array<double, 3> w = {0.0, 1.0, 3.0};
  std::array<int, 3> counts{};
  for (int i = 0; i < 10000; ++i) counts[weighted_index(w, rng)]++;
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(counts[2], 7500, 400);
}

}  // namespace
}  // namespace sfi::stats
