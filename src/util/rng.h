// Deterministic random-number utilities.
//
// Every random entity in a simulation (each process's local coin, the link
// scheduler, the topology generator, ...) gets its own independent stream
// derived from a single master seed via SplitMix64.  This gives bit-exact
// reproducibility for a given master seed while keeping streams statistically
// independent -- which the paper's model requires (processes use *local*
// randomness; the oblivious scheduler's choices are fixed up front).
#pragma once

#include <cstdint>
#include <random>

#include "util/assert.h"

namespace dg {

/// SplitMix64 step: maps any 64-bit value to a well-mixed 64-bit value.
/// Used both as a stand-alone mixer and to seed mt19937_64 streams.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derive a child seed from a parent seed and a stream index.
/// Distinct (seed, stream) pairs give (practically) independent streams.
constexpr std::uint64_t derive_seed(std::uint64_t seed,
                                    std::uint64_t stream) noexcept {
  return splitmix64(seed ^ splitmix64(stream + 0x632be59bd9b4e019ULL));
}

/// A uniform random bit generator with the engine's output range that
/// returns one fixed output, counting how often it is asked: drives a
/// distribution over a single chosen engine output (Rng::uniform_of).
class OneOutputUrbg {
 public:
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }

  explicit OneOutputUrbg(result_type output) : output_(output) {}
  result_type operator()() {
    ++calls_;
    return output_;
  }
  int calls() const noexcept { return calls_; }

 private:
  result_type output_;
  int calls_ = 0;
};

/// A process-local random stream.  Thin wrapper over mt19937_64 with the
/// handful of draw shapes the algorithms need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)) {}
  Rng(std::uint64_t seed, std::uint64_t stream)
      : engine_(derive_seed(seed, stream)) {}

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_) < p;
  }

  /// The uniform() value that engine output `u` maps to.  The distribution
  /// must consume exactly one output (53 mantissa bits from a 64-bit
  /// engine); chance_threshold() relies on it.
  static double uniform_of(std::uint64_t u) {
    OneOutputUrbg urbg(u);
    const double x = std::uniform_real_distribution<double>(0.0, 1.0)(urbg);
    DG_ASSERT(urbg.calls() == 1);
    return x;
  }

  /// The least engine output u with uniform_of(u) >= p, for p in (0, 1).
  /// uniform_of is non-decreasing in u, so chance(p) is exactly
  /// `bits() < chance_threshold(p)`: the same single draw, compared as an
  /// integer.  Found by bisection over the engine's output range.
  static std::uint64_t chance_threshold(double p) {
    DG_EXPECTS(p > 0.0 && p < 1.0);
    // Invariant: uniform_of(lo) < p <= uniform_of(hi).  uniform_of(0) is 0,
    // and uniform_of(max) is the largest double below 1, which is >= p.
    std::uint64_t lo = std::mt19937_64::min();
    std::uint64_t hi = std::mt19937_64::max();
    DG_ASSERT(uniform_of(lo) < p && uniform_of(hi) >= p);
    while (hi - lo > 1) {
      const std::uint64_t mid = lo + (hi - lo) / 2;
      (uniform_of(mid) >= p ? hi : lo) = mid;
    }
    return hi;
  }

  /// Uniform integer in [0, bound).  bound must be positive.
  std::uint64_t below(std::uint64_t bound) {
    DG_EXPECTS(bound > 0);
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    DG_EXPECTS(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Raw 64 uniform bits.
  std::uint64_t bits() { return engine_(); }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dg
