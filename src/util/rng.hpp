// Deterministic random number generation.
//
// Everything in the simulator derives from explicit 64-bit seeds so every
// trial is replayable from (seed, config) alone. We ship two tiny generators:
//   * SplitMix64 — seed mixing / stream splitting,
//   * Xoshiro256** — the workhorse generator (satisfies
//     std::uniform_random_bit_generator).
// Per-node and per-component streams are derived with Fork(), which mixes a
// stream tag into the parent seed so sibling streams are statistically
// independent and insertion-order independent.
#pragma once

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "util/check.hpp"

namespace sdn::util {

/// SplitMix64 step: returns the next output and advances `state`.
std::uint64_t SplitMix64Next(std::uint64_t& state);

/// Mixes (seed, tag) into a new independent seed. Pure function.
std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t tag);

namespace detail {
/// Tables of the 256-layer exponential ziggurat behind Rng::StdExponential
/// (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000, 53-bit form), computed
/// once at static initialization (rng.cpp): per layer the fast-path
/// acceptance bound k, the abscissa scale w and f = exp(-x_i).
struct ExpZiggurat {
  std::array<std::uint64_t, 256> k;
  std::array<double, 256> w;
  std::array<double, 256> f;
};
extern const ExpZiggurat kExpZig;
/// Right edge of the base layer; the tail beyond it is r + Exp(1).
inline constexpr double kExpZigR = 7.697117470131487;
/// Area of every layer.
inline constexpr double kExpZigV = 3.949659822581572e-3;
}  // namespace detail

/// Xoshiro256** PRNG. Satisfies std::uniform_random_bit_generator, so it can
/// drive <random> distributions; we also provide allocation-free helpers for
/// the distributions the simulator actually uses.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four state words via SplitMix64 as the authors recommend.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64 random bits. Inline: this and the bounded draws below sit
  /// on the topology generators' per-edge path, where an out-of-line call
  /// per draw is measurable against the ~2 ns xoshiro step itself.
  result_type operator()() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Derives an independent child stream identified by `tag`.
  /// Deterministic: same (parent seed, tag) -> same child.
  [[nodiscard]] Rng Fork(std::uint64_t tag) const;

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased (Lemire).
  std::uint64_t UniformU64(std::uint64_t bound) {
    SDN_CHECK(bound > 0);
    // Lemire's nearly-divisionless unbiased bounded generation.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) {
    SDN_CHECK(lo <= hi);
    const auto span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    if (span == 0) {  // full 64-bit range
      return static_cast<std::int64_t>((*this)());
    }
    return lo + static_cast<std::int64_t>(UniformU64(span));
  }

  /// Uniform double in [0, 1).
  double UniformDouble() {
    // 53 high bits -> [0,1) with full double precision.
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Exponential(rate). Requires rate > 0.
  double Exponential(double rate) {
    SDN_CHECK(rate > 0.0);
    // -log(1-U)/rate; 1-U in (0,1] avoids log(0).
    return -std::log1p(-UniformDouble()) / rate;
  }

  /// Standard exponential Exp(1) by the Marsaglia–Tsang ziggurat: about 98%
  /// of calls cost one 64-bit draw, a table compare and a multiply; the
  /// rest resolve a wedge or the tail by exact rejection (StdExponentialSlow).
  /// Unlike Exponential() it calls no logarithm on the fast path, which is
  /// what the topology generators' per-edge geometric skips pay for.
  double StdExponential() {
    const std::uint64_t u = (*this)();
    const auto i = static_cast<std::size_t>(u & 0xff);
    const std::uint64_t j = u >> 11;
    if (j < detail::kExpZig.k[i]) {
      return static_cast<double>(j) * detail::kExpZig.w[i];
    }
    return StdExponentialSlow(i, j);
  }

  /// Bernoulli(p) trial; p clamped to [0,1].
  bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return UniformDouble() < p;
  }

  /// Geometric: number of failures before first success, p in (0,1].
  std::uint64_t Geometric(double p) {
    SDN_CHECK(p > 0.0 && p <= 1.0);
    if (p == 1.0) return 0;
    const double u = UniformDouble();
    return static_cast<std::uint64_t>(std::log1p(-u) / std::log1p(-p));
  }

  /// In-place Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::span<T> items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(UniformU64(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// k distinct values sampled uniformly from [0, n) (Floyd's algorithm),
  /// returned sorted. Requires k <= n.
  std::vector<std::uint64_t> SampleWithoutReplacement(std::uint64_t n,
                                                      std::uint64_t k);

  /// The seed this generator was constructed from (for reports/replay).
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  /// StdExponential's rejection path for a draw (layer i, abscissa bits j)
  /// that missed the fast rectangle.
  double StdExponentialSlow(std::size_t i, std::uint64_t j);

  std::uint64_t seed_ = 0;
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace sdn::util
