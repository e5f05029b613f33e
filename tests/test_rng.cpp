#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <numeric>
#include <set>
#include <vector>

#include "util/check.hpp"

namespace sdn::util {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng parent(7);
  Rng c1 = parent.Fork(1);
  Rng c2 = parent.Fork(2);
  Rng c1_again = Rng(7).Fork(1);
  EXPECT_EQ(c1(), c1_again());
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (c1() == c2());
  EXPECT_LT(equal, 3);
}

TEST(Rng, ForkChainsDoNotCommute) {
  Rng parent(7);
  EXPECT_NE(parent.Fork(1).Fork(2)(), parent.Fork(2).Fork(1)());
}

TEST(Rng, UniformU64InBounds) {
  Rng rng(3);
  for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 100ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.UniformU64(bound), bound);
  }
}

TEST(Rng, UniformU64IsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++buckets[rng.UniformU64(10)];
  for (const int b : buckets) {
    EXPECT_NEAR(b, trials / 10, trials / 100);  // within 10% of expectation
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(5);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.UniformInt(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ExponentialHasCorrectMean) {
  Rng rng(13);
  double sum = 0.0;
  const int trials = 200000;
  for (int i = 0; i < trials; ++i) sum += rng.Exponential(2.0);
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, ExponentialRejectsNonPositiveRate) {
  Rng rng(1);
  EXPECT_THROW(rng.Exponential(0.0), CheckError);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, BernoulliRate) {
  Rng rng(19);
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

TEST(Rng, GeometricMean) {
  Rng rng(23);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    sum += static_cast<double>(rng.Geometric(0.25));
  }
  // Failures before first success: mean (1-p)/p = 3.
  EXPECT_NEAR(sum / trials, 3.0, 0.1);
}

// Every layer of the exponential ziggurat has the same area v: the top
// layers x_i (exp(-x_{i-1}) - exp(-x_i)), the base strip r exp(-r) plus the
// tail exp(-r) (its rectangle widened to q = v / exp(-r)). The fast-path
// bound k[i] is the share of layer i's width under the layer above; the top
// layer [0, x_1] has none.
TEST(Rng, ExpZigguratLayersHaveEqualArea) {
  const detail::ExpZiggurat& z = detail::kExpZig;
  const double m = 0x1.0p53;
  const double v = detail::kExpZigV;
  EXPECT_DOUBLE_EQ(z.w[255] * m, detail::kExpZigR);
  EXPECT_DOUBLE_EQ(z.f[0], 1.0);
  EXPECT_NEAR(z.w[0] * m * z.f[255], v, 1e-15);
  EXPECT_NEAR(detail::kExpZigR * z.f[255] + z.f[255], v, 1e-12);
  EXPECT_EQ(z.k[1], 0u);
  for (std::size_t i = 1; i < 256; ++i) {
    const double x = z.w[i] * m;
    EXPECT_DOUBLE_EQ(z.f[i], std::exp(-x)) << "layer " << i;
    EXPECT_NEAR(x * (z.f[i - 1] - z.f[i]), v, 1e-9 * v) << "layer " << i;
    if (i >= 2) {
      EXPECT_NEAR(static_cast<double>(z.k[i]), z.w[i - 1] / z.w[i] * m, 2.0)
          << "layer " << i;
    }
  }
}

TEST(Rng, StdExponentialHasExp1Moments) {
  Rng rng(47);
  double sum = 0.0;
  double sum2 = 0.0;
  double max = 0.0;
  const int trials = 400000;
  for (int i = 0; i < trials; ++i) {
    const double x = rng.StdExponential();
    ASSERT_GE(x, 0.0);
    sum += x;
    sum2 += x * x;
    max = std::max(max, x);
  }
  EXPECT_NEAR(sum / trials, 1.0, 0.01);
  EXPECT_NEAR(sum2 / trials, 2.0, 0.05);  // E[X^2] = 2
  // The tail beyond r = 7.697 carries mass e^-r * trials ~ 180 draws.
  EXPECT_GT(max, detail::kExpZigR);
}

// The topology generators' skip: floor(Exp(1) / lambda), lambda =
// -log(1-p), must follow Geometric(p) (failures before the first success)
// exactly. Chi-square against the pmf over bins of probability >= 1/40
// (the last bin is the tail), at a 1e-4 false-alarm rate.
TEST(Rng, ZigguratSkipMatchesGeometricPmf) {
  for (const double p : {0.5, 0.0758, 3.4e-4}) {
    const std::uint64_t seed = 0x5eed0000ULL + static_cast<std::uint64_t>(p * 1e6);
    SCOPED_TRACE("p=" + std::to_string(p) + " seed=" + std::to_string(seed));
    const auto cdf = [p](double k) {  // P(X <= k)
      return -std::expm1((k + 1.0) * std::log1p(-p));
    };
    std::vector<std::uint64_t> upper;  // bin b holds (upper[b-1], upper[b]]
    double prev = 0.0;
    for (std::uint64_t k = 0; 1.0 - prev > 1.0 / 40; ++k) {
      if (cdf(static_cast<double>(k)) - prev >= 1.0 / 40) {
        upper.push_back(k);
        prev = cdf(static_cast<double>(k));
      }
    }
    const int trials = 200000;
    std::vector<double> observed(upper.size() + 1, 0.0);
    Rng rng(seed);
    const double inv_lambda = -1.0 / std::log1p(-p);
    for (int i = 0; i < trials; ++i) {
      const auto skip =
          static_cast<std::uint64_t>(rng.StdExponential() * inv_lambda);
      const auto bin = static_cast<std::size_t>(
          std::lower_bound(upper.begin(), upper.end(), skip) - upper.begin());
      observed[bin] += 1.0;
    }
    double chi2 = 0.0;
    double below = 0.0;
    for (std::size_t b = 0; b < observed.size(); ++b) {
      const double at = b < upper.size() ? cdf(static_cast<double>(upper[b]))
                                         : 1.0;
      const double expected = (at - below) * trials;
      below = at;
      chi2 += (observed[b] - expected) * (observed[b] - expected) / expected;
    }
    // Wilson–Hilferty 0.9999 quantile of chi-square with df degrees.
    const auto df = static_cast<double>(observed.size() - 1);
    const double h = 2.0 / (9.0 * df);
    const double critical = df * std::pow(1.0 - h + 3.719 * std::sqrt(h), 3);
    std::printf("ziggurat skip vs Geometric(%g), seed %llu: chi2 %.1f, "
                "critical %.1f, %zu bins\n",
                p, static_cast<unsigned long long>(seed), chi2, critical,
                observed.size());
    EXPECT_LT(chi2, critical);
  }
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(29);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  rng.Shuffle(std::span<int>(v));
  std::vector<int> sorted = v;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < 50; ++i) EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rng, SampleWithoutReplacementIsDistinctSortedSubset) {
  Rng rng(31);
  for (int trial = 0; trial < 100; ++trial) {
    const auto s = rng.SampleWithoutReplacement(100, 10);
    ASSERT_EQ(s.size(), 10u);
    EXPECT_TRUE(std::is_sorted(s.begin(), s.end()));
    EXPECT_EQ(std::set<std::uint64_t>(s.begin(), s.end()).size(), 10u);
    for (const auto x : s) EXPECT_LT(x, 100u);
  }
}

TEST(Rng, SampleWithoutReplacementFullRange) {
  Rng rng(37);
  const auto s = rng.SampleWithoutReplacement(5, 5);
  ASSERT_EQ(s.size(), 5u);
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(s[i], i);
}

TEST(Rng, LowSerialCorrelation) {
  // Lag-1 autocorrelation of uniform doubles should be ~0.
  Rng rng(41);
  const int n = 100000;
  double prev = rng.UniformDouble();
  double sum_xy = 0.0;
  double sum_x = 0.0;
  double sum_x2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.UniformDouble();
    sum_xy += prev * x;
    sum_x += x;
    sum_x2 += x * x;
    prev = x;
  }
  const double mean = sum_x / n;
  const double var = sum_x2 / n - mean * mean;
  const double cov = sum_xy / n - mean * mean;
  EXPECT_LT(std::fabs(cov / var), 0.02);
}

TEST(Rng, BitBalance) {
  // Each of the 64 output bits should be ~50% ones.
  Rng rng(43);
  const int n = 20000;
  int counts[64] = {};
  for (int i = 0; i < n; ++i) {
    const std::uint64_t x = rng();
    for (int b = 0; b < 64; ++b) {
      counts[b] += static_cast<int>((x >> b) & 1);
    }
  }
  for (int b = 0; b < 64; ++b) {
    EXPECT_NEAR(counts[b], n / 2, n / 25) << "bit " << b;
  }
}

TEST(MixSeed, TagSensitivity) {
  EXPECT_NE(MixSeed(1, 0), MixSeed(1, 1));
  EXPECT_NE(MixSeed(0, 5), MixSeed(1, 5));
  EXPECT_EQ(MixSeed(99, 3), MixSeed(99, 3));
}

}  // namespace
}  // namespace sdn::util
