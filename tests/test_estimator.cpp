#include "algo/estimator.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "algo/sketch_pool.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace sdn::algo {
namespace {

/// Simulates full convergence: merge all nodes' sketches into one.
CardinalityEstimator ConvergedSketch(int n, int L, util::Rng& rng,
                                     bool quantize = false) {
  CardinalityEstimator merged(L, rng, quantize);
  for (int i = 1; i < n; ++i) {
    const CardinalityEstimator other(L, rng, quantize);
    merged.Merge(other.mins());
  }
  return merged;
}

TEST(Estimator, RejectsTooFewCoordinates) {
  util::Rng rng(1);
  EXPECT_THROW(CardinalityEstimator(2, rng), util::CheckError);
}

TEST(Estimator, SingleNodeEstimatesNearOne) {
  util::Rng rng(2);
  double total = 0.0;
  const int trials = 300;
  for (int t = 0; t < trials; ++t) {
    total += CardinalityEstimator(64, rng).Estimate();
  }
  EXPECT_NEAR(total / trials, 1.0, 0.08);
}

TEST(Estimator, ConvergedEstimateTracksN) {
  util::Rng rng(3);
  for (const int n : {10, 100, 1000}) {
    double total = 0.0;
    const int trials = 30;
    for (int t = 0; t < trials; ++t) {
      total += ConvergedSketch(n, 128, rng).Estimate();
    }
    const double mean = total / trials;
    // Relative stddev ~ 1/sqrt(126) ≈ 0.09; 30 trials → sem ≈ 1.6%.
    EXPECT_NEAR(mean, n, 0.08 * n) << "n=" << n;
  }
}

TEST(Estimator, ErrorShrinksWithL) {
  util::Rng rng(4);
  const int n = 500;
  const auto spread = [&](int L) {
    double sum_sq = 0.0;
    const int trials = 60;
    for (int t = 0; t < trials; ++t) {
      const double rel = ConvergedSketch(n, L, rng).Estimate() / n - 1.0;
      sum_sq += rel * rel;
    }
    return std::sqrt(sum_sq / trials);
  };
  const double rough = spread(8);
  const double fine = spread(128);
  EXPECT_LT(fine, rough * 0.6);
  EXPECT_NEAR(fine, CardinalityEstimator::RelativeStddev(128), 0.06);
}

TEST(Estimator, MergeIsIdempotentAndCommutative) {
  util::Rng rng(5);
  CardinalityEstimator a(16, rng);
  CardinalityEstimator b(16, rng);
  CardinalityEstimator a2 = a;
  EXPECT_TRUE(a.Merge(b.mins()) || true);  // merge once
  const auto snapshot = std::vector<double>(a.mins().begin(), a.mins().end());
  EXPECT_FALSE(a.Merge(b.mins()));  // idempotent
  // Commutativity: b ∪ a == a ∪ b.
  b.Merge(a2.mins());
  EXPECT_TRUE(std::equal(snapshot.begin(), snapshot.end(), b.mins().begin()));
  EXPECT_EQ(a.Fingerprint(), b.Fingerprint());
}

TEST(Estimator, MergeCoordOnlyTouchesOneCoordinate) {
  util::Rng rng(6);
  CardinalityEstimator a(8, rng);
  const double tiny = 1e-9;
  EXPECT_TRUE(a.MergeCoord(3, tiny));
  EXPECT_DOUBLE_EQ(a.mins()[3], tiny);
  EXPECT_FALSE(a.MergeCoord(3, 1.0));  // not smaller
  // The per-call bounds check is gated (release hot loops run check-free);
  // with the guard on, an out-of-range coordinate must throw.
  const bool old = VerifyEstimatorChecks();
  SetVerifyEstimatorChecks(true);
  EXPECT_THROW(a.MergeCoord(8, 0.5), util::CheckError);
  SetVerifyEstimatorChecks(old);
}

TEST(Estimator, MergeBlockMatchesMergeCoordLoop) {
  util::Rng rng(12);
  CardinalityEstimator block_merged(32, rng);
  util::Rng rng_copy(12);
  CardinalityEstimator coord_merged(32, rng_copy);
  ASSERT_EQ(block_merged.mins()[0], coord_merged.mins()[0]);

  util::Rng vals_rng(13);
  for (int round = 0; round < 50; ++round) {
    const std::size_t base = static_cast<std::size_t>(round) % 28;
    std::vector<double> vals;
    for (int i = 0; i < 4; ++i) vals.push_back(vals_rng.Exponential(1.0));
    bool coord_changed = false;
    for (std::size_t i = 0; i < vals.size(); ++i) {
      coord_changed |= coord_merged.MergeCoord(base + i, vals[i]);
    }
    const bool block_changed = block_merged.MergeBlock(base, vals);
    EXPECT_EQ(block_changed, coord_changed);
  }
  // Bit-identical merged state (same float-compare semantics).
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(block_merged.mins()[static_cast<std::size_t>(i)],
              coord_merged.mins()[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(block_merged.Fingerprint(), coord_merged.Fingerprint());
}

TEST(Estimator, MergeBlockBoundsCheckedAndIdempotent) {
  util::Rng rng(14);
  CardinalityEstimator a(8, rng);
  const std::vector<double> tiny(4, 1e-12);
  EXPECT_TRUE(a.MergeBlock(4, tiny));
  EXPECT_FALSE(a.MergeBlock(4, tiny));  // idempotent: nothing decreases twice
  // The hoisted bounds check is always on: one check per block, not per
  // coordinate, so even release builds reject an overflowing block.
  EXPECT_THROW(a.MergeBlock(5, tiny), util::CheckError);
  EXPECT_THROW(a.MergeBlock(9, {}), util::CheckError);
}

TEST(Estimator, FingerprintDetectsAnyChange) {
  util::Rng rng(7);
  CardinalityEstimator a(32, rng);
  const std::uint64_t before = a.Fingerprint();
  a.MergeCoord(31, a.mins()[31] / 2);
  EXPECT_NE(a.Fingerprint(), before);
}

TEST(Estimator, QuantizedSurvivesFloatRoundTrip) {
  util::Rng rng(8);
  CardinalityEstimator a(64, rng, /*quantize_float32=*/true);
  for (const double m : a.mins()) {
    EXPECT_EQ(m, static_cast<double>(static_cast<float>(m)));
  }
}

TEST(Estimator, WeightedSketchEstimatesSum) {
  util::Rng rng(10);
  const std::vector<std::uint64_t> weights = {5, 0, 120, 7, 0, 368, 1};
  std::uint64_t total = 0;
  for (const auto w : weights) total += w;
  double sum = 0.0;
  const int trials = 40;
  for (int t = 0; t < trials; ++t) {
    CardinalityEstimator merged =
        CardinalityEstimator::ForWeight(weights[0], 128, rng);
    for (std::size_t i = 1; i < weights.size(); ++i) {
      merged.Merge(CardinalityEstimator::ForWeight(weights[i], 128, rng).mins());
    }
    sum += merged.Estimate();
  }
  EXPECT_NEAR(sum / trials, static_cast<double>(total),
              0.08 * static_cast<double>(total));
}

TEST(Estimator, AllZeroWeightsEstimateZero) {
  util::Rng rng(11);
  CardinalityEstimator a = CardinalityEstimator::ForWeight(0, 8, rng);
  const CardinalityEstimator b = CardinalityEstimator::ForWeight(0, 8, rng);
  a.Merge(b.mins());
  EXPECT_EQ(a.Estimate(), 0.0);
}

TEST(Estimator, ZeroWeightNeverLowersMinima) {
  util::Rng rng(12);
  CardinalityEstimator weighted = CardinalityEstimator::ForWeight(9, 16, rng);
  const auto before =
      std::vector<double>(weighted.mins().begin(), weighted.mins().end());
  const CardinalityEstimator zero = CardinalityEstimator::ForWeight(0, 16, rng);
  EXPECT_FALSE(weighted.Merge(zero.mins()));
  EXPECT_TRUE(std::equal(before.begin(), before.end(),
                         weighted.mins().begin()));
}

TEST(Estimator, RepetitionsForMatchesStddevTarget) {
  EXPECT_EQ(CardinalityEstimator::RepetitionsFor(1.0), 3);
  const int L = CardinalityEstimator::RepetitionsFor(0.1);
  EXPECT_LE(CardinalityEstimator::RelativeStddev(L), 0.1);
  EXPECT_GT(CardinalityEstimator::RelativeStddev(L - 1), 0.1);
}

/// Pooled and owned-quantized layouts must stay in lockstep: same wire
/// bits per coordinate, fingerprint and estimate.
void ExpectSameSketch(const CardinalityEstimator& owned,
                      const CardinalityEstimator& pooled) {
  for (std::size_t i = 0; i < static_cast<std::size_t>(owned.size()); ++i) {
    ASSERT_EQ(owned.CoordBits(i), pooled.CoordBits(i)) << "coord " << i;
  }
  EXPECT_EQ(owned.Fingerprint(), pooled.Fingerprint());
  EXPECT_EQ(owned.Estimate(), pooled.Estimate());
}

// hjswy keeps its sketches in the shared SoA pool; the owned layout remains
// for standalone use. Both must agree bit for bit under the merges hjswy
// performs (single coordinates and float32 wire blocks), for the count sketch
// and a weighted track_sum sketch at a nonzero column base.
TEST(Estimator, PooledLayoutMatchesOwnedQuantizedLayout) {
  const int L = 64;
  SketchPool pool(/*nodes=*/3, /*columns=*/2 * L);
  util::Rng wire_rng(99);
  for (const std::uint64_t weight : {0ULL, 1ULL, 9ULL}) {
    util::Rng owned_rng(41 + weight);
    util::Rng pooled_rng(41 + weight);
    CardinalityEstimator owned(L, owned_rng, /*quantize_float32=*/true);
    CardinalityEstimator pooled(L, pooled_rng, &pool, 1, /*col_base=*/0);
    CardinalityEstimator owned_sum =
        CardinalityEstimator::ForWeight(weight, L, owned_rng, true);
    CardinalityEstimator pooled_sum =
        CardinalityEstimator::ForWeight(weight, L, pooled_rng, &pool, 1, L);
    for (int step = 0; step < 200; ++step) {
      ExpectSameSketch(owned, pooled);
      ExpectSameSketch(owned_sum, pooled_sum);
      const CardinalityEstimator sender(L, wire_rng, /*quantize_float32=*/true);
      const auto base = static_cast<std::size_t>(wire_rng.UniformU64(L));
      const std::size_t len = 1 + wire_rng.UniformU64(L - base);
      std::vector<std::uint32_t> bits;
      for (std::size_t i = base; i < base + len; ++i) {
        bits.push_back(sender.CoordBits(i));
        ASSERT_EQ(owned.MergeCoord(i, sender.Coord(i)),
                  pooled.MergeCoord(i, sender.Coord(i)));
      }
      ASSERT_EQ(owned_sum.MergeBlockBits(base, bits.data(), len),
                pooled_sum.MergeBlockBits(base, bits.data(), len));
    }
  }
}

}  // namespace
}  // namespace sdn::algo
