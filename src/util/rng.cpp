#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"

namespace sdn::util {

std::uint64_t SplitMix64Next(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t MixSeed(std::uint64_t seed, std::uint64_t tag) {
  // Feed the tag through one SplitMix64 step keyed by the seed; a plain
  // xor would make Fork(a).Fork(b) collide with Fork(b).Fork(a).
  std::uint64_t state = seed ^ (0x94d049bb133111ebULL * (tag + 1));
  std::uint64_t mixed = SplitMix64Next(state);
  state = mixed ^ seed;
  return SplitMix64Next(state);
}

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = SplitMix64Next(sm);
}

Rng Rng::Fork(std::uint64_t tag) const { return Rng(MixSeed(seed_, tag)); }

namespace detail {
namespace {

// Layer i >= 1 spans [0, x_i] with x_255 = r and x_{i-1} =
// -log(v / x_i + exp(-x_i)); layer 0 is the base strip plus the tail, its
// rectangle widened to q = v / exp(-r). With m = 2^53 (the abscissa is the
// top 53 bits of the draw, the layer index its low 8):
//   w[i] = x_i / m (w[0] = q / m), f[i] = exp(-x_i) (f[0] = 1),
//   k[i] = floor(x_{i-1} / x_i * m) (k[0] = floor(r / q * m), k[1] = 0).
// The tables go through libm's exp and log, as the generators' skip scale
// -1/log1p(-p) does, so a stream is reproducible on one libm.
ExpZiggurat MakeExpZiggurat() {
  constexpr double m = 0x1.0p53;
  ExpZiggurat z{};
  double x = kExpZigR;
  const double q = kExpZigV / std::exp(-x);
  z.k[0] = static_cast<std::uint64_t>(x / q * m);
  z.k[1] = 0;
  z.w[0] = q / m;
  z.w[255] = x / m;
  z.f[0] = 1.0;
  z.f[255] = std::exp(-x);
  for (int i = 254; i >= 1; --i) {
    const double next = -std::log(kExpZigV / x + std::exp(-x));
    const auto u = static_cast<std::size_t>(i);
    z.k[u + 1] = static_cast<std::uint64_t>(next / x * m);
    x = next;
    z.w[u] = x / m;
    z.f[u] = std::exp(-x);
  }
  return z;
}

}  // namespace

const ExpZiggurat kExpZig = MakeExpZiggurat();

}  // namespace detail

double Rng::StdExponentialSlow(std::size_t i, std::uint64_t j) {
  const detail::ExpZiggurat& z = detail::kExpZig;
  for (;;) {
    // Base layer outside its rectangle: the tail x > r, which by
    // memorylessness is r plus a fresh Exp(1).
    if (i == 0) return detail::kExpZigR - std::log1p(-UniformDouble());
    // Wedge of layer i: accept x when a uniform height between the layer's
    // bottom exp(-x_i) and top exp(-x_{i-1}) falls under the density.
    const double x = static_cast<double>(j) * z.w[i];
    if (z.f[i] + UniformDouble() * (z.f[i - 1] - z.f[i]) < std::exp(-x)) {
      return x;
    }
    const std::uint64_t u = (*this)();
    i = static_cast<std::size_t>(u & 0xff);
    j = u >> 11;
    if (j < z.k[i]) return static_cast<double>(j) * z.w[i];
  }
}

std::vector<std::uint64_t> Rng::SampleWithoutReplacement(std::uint64_t n,
                                                         std::uint64_t k) {
  SDN_CHECK(k <= n);
  std::vector<std::uint64_t> out;
  out.reserve(static_cast<std::size_t>(k));
  // Floyd's algorithm: O(k) expected draws, produces a uniform k-subset.
  for (std::uint64_t j = n - k; j < n; ++j) {
    const std::uint64_t t = UniformU64(j + 1);
    if (std::find(out.begin(), out.end(), t) == out.end()) {
      out.push_back(t);
    } else {
      out.push_back(j);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace sdn::util
