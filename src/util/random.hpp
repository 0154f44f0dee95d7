#pragma once
// Deterministic, seedable random number generation.
//
// Every stochastic element of the simulator (graph generation, the random
// vertex partition, sketch seeds, component ranks) is derived from explicit
// 64-bit seeds so that any run is exactly reproducible from (seed, n, k).
//
// SplitMix64 doubles as a cheap PRF: split(seed, key) is used wherever the
// paper assumes a shared hash function evaluated on component labels or edge
// ids (the paper's d-wise independent families of Section 2.2; see the
// PrfHash note in util/hashing.hpp for why a PRF stands in for them).

#include <cstdint>

namespace kmm {

/// One SplitMix64 mixing step; maps any 64-bit value to a well-mixed one.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t x) noexcept;

/// PRF-style combiner: a deterministic hash of (seed, key).
[[nodiscard]] inline std::uint64_t split(std::uint64_t seed, std::uint64_t key) noexcept {
  return splitmix64(seed ^ (0x9e3779b97f4a7c15ULL + key * 0xbf58476d1ce4e5b9ULL));
}

/// Three-way combiner, used for (seed, phase, entity) style derivations.
[[nodiscard]] inline std::uint64_t split3(std::uint64_t seed, std::uint64_t a,
                                          std::uint64_t b) noexcept {
  return split(split(seed, a), b);
}

/// xoshiro256++ generator (Blackman & Vigna), seeded via SplitMix64.
/// Satisfies UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x853c49e6748fea9bULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept { return next(); }
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound); bound > 0. Uses Lemire's multiply-shift rejection.
  std::uint64_t next_below(std::uint64_t bound) noexcept;

  /// Uniform in [lo, hi] inclusive.
  std::int64_t next_in(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [0, 1).
  double next_double() noexcept;

  /// Bernoulli(p).
  bool next_bool(double p) noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace kmm
