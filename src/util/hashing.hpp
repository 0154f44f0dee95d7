#pragma once
// Hash families used throughout the k-machine simulation.
//
// The paper (Section 2.2) shares Θ~(n/k) random bits among machines and
// builds d-wise independent hash functions from them (Alon–Babai–Itai via
// [5, Thm 2.1]). We provide:
//
//  * PolynomialHash — an honest d-wise independent family: a random degree
//    (d-1) polynomial over F_{2^61-1}. Evaluation costs O(d), so it is used
//    directly in tests (which verify d-wise independence statistically) and
//    kept available for small d.
//  * PrfHash — a SplitMix64-based PRF standing in for the shared hash in the
//    algorithms themselves. Computationally indistinguishable from a random
//    function at simulation scales; the *communication* cost of sharing the
//    seed is still charged via cluster::SharedRandomness. The substitution
//    is checked statistically by ProxyMapTest.PrfMatchesDWiseLoadBalance
//    (tests/test_cluster.cpp).

#include <cstdint>
#include <vector>

#include "util/prime_field.hpp"
#include "util/random.hpp"

namespace kmm {

/// d-wise independent hash family: h(x) = sum_i c_i x^i mod p, random c_i.
/// For any d distinct inputs, the outputs are independent and uniform on F_p.
class PolynomialHash {
 public:
  /// Draws the d coefficients from `rng`. Requires d >= 1.
  PolynomialHash(int d, Rng& rng);

  /// Evaluate at x (reduced into the field). O(d) via Horner.
  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const noexcept;

  /// Evaluation reduced to a bucket in [0, buckets).
  [[nodiscard]] std::uint64_t bucket(std::uint64_t x, std::uint64_t buckets) const noexcept {
    return (*this)(x) % buckets;
  }

  [[nodiscard]] int degree_bound() const noexcept { return static_cast<int>(coeff_.size()); }

  /// Random bits consumed by this function: d coefficients of ~61 bits,
  /// matching the Θ(d log n) bound the paper cites.
  [[nodiscard]] std::uint64_t random_bits() const noexcept { return coeff_.size() * 61ULL; }

 private:
  std::vector<std::uint64_t> coeff_;
};

/// PRF-style shared hash: all machines with the same seed compute the same
/// function; different (phase, iteration) pairs give independent functions.
class PrfHash {
 public:
  explicit PrfHash(std::uint64_t seed) noexcept : seed_(seed) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const noexcept {
    return split(seed_, x);
  }
  [[nodiscard]] std::uint64_t bucket(std::uint64_t x, std::uint64_t buckets) const noexcept {
    return buckets == 0 ? 0 : (*this)(x) % buckets;
  }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

 private:
  std::uint64_t seed_;
};

/// Number of trailing zeros of h, clamped to `max_level`; geometric level
/// assignment for the l0-sampler (P[level >= l] = 2^-l).
[[nodiscard]] int geometric_level(std::uint64_t hashed, int max_level) noexcept;

}  // namespace kmm
