#pragma once
// Shared randomness à la Section 2.2.
//
// In the paper, machine M1 generates Θ~(n/k) true random bits and pushes
// them to everyone with a two-round relay (M1 sends one bit per link, the
// receivers broadcast), i.e. k-1 fresh common bits per 2 rounds. From those
// bits all machines construct the same d-wise independent hash functions
// (proxy assignment h_{j,ρ}) and the Θ(log n)-wise independent bits backing
// the sketches ([10] Corollary 1 + [5] Theorem 2.1).
//
// The simulator separates the two concerns:
//  * cost     — charge_distribution() charges the exact round count of the
//               relay protocol: 2 * ceil(bits / (k-1)) rounds;
//  * function — seeds derived deterministically from the master seed stand
//               in for the shared bits. A PRF is a faithful substitute at
//               simulation scale: no test can tell it from the d-wise
//               independent family, and ProxyMapTest.PrfMatchesDWiseLoadBalance
//               (tests/test_cluster.cpp) checks the proxy loads balance alike.

#include <cstdint>

#include "cluster/cluster.hpp"
#include "util/random.hpp"

namespace kmm {

class SharedRandomness {
 public:
  /// `master_seed` models M1's private random tape.
  explicit SharedRandomness(std::uint64_t master_seed) noexcept : master_(master_seed) {}

  /// Rounds the Section 2.2 relay needs to make `bits` bits common
  /// knowledge on k machines: per two rounds, M1 pushes one link-load to
  /// its k-1 neighbors and they broadcast it, i.e. (k-1)*bandwidth bits
  /// become common per 2 rounds. (The paper narrates the protocol at bit
  /// granularity; with B-bit links the B bits pipeline in the same step,
  /// which is what its O~(n/k^2) accounting uses.)
  [[nodiscard]] static std::uint64_t distribution_rounds(std::uint64_t bits, MachineId k,
                                                         std::uint64_t bandwidth_bits);

  /// Charge the relay's cost on the cluster ledger and record it. Returns
  /// the rounds charged.
  std::uint64_t charge_distribution(Cluster& cluster, std::uint64_t bits);

  /// Deterministic shared seed for (phase, iteration, purpose); every
  /// machine computes the same value, as if read off the common bit string.
  [[nodiscard]] std::uint64_t seed(std::uint64_t phase, std::uint64_t iteration,
                                   std::uint64_t purpose) const noexcept {
    return split3(master_, phase * 0x10001 + iteration, purpose);
  }

  [[nodiscard]] std::uint64_t master() const noexcept { return master_; }
  [[nodiscard]] std::uint64_t bits_distributed() const noexcept { return bits_distributed_; }

 private:
  std::uint64_t master_;
  std::uint64_t bits_distributed_ = 0;
};

/// Purposes (third seed coordinate) used across the algorithms.
namespace seed_purpose {
inline constexpr std::uint64_t kProxy = 1;    // h_{j,rho}: component label -> machine
inline constexpr std::uint64_t kRank = 2;     // DRR component ranks
inline constexpr std::uint64_t kSketch = 3;   // l0-sampler hash/fingerprint seeds
inline constexpr std::uint64_t kSampling = 4; // min-cut edge sampling
}  // namespace seed_purpose

}  // namespace kmm
