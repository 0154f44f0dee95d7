#pragma once
// Linear graph sketches over incidence vectors (Section 2.3).
//
// Vertex u's incidence vector a_u lives on the edge-index universe [0, n^2):
//   a_u[(x,y)] = +1 if u = x < y and (x,y) ∈ E,
//                -1 if x < y = u and (x,y) ∈ E.
// Summing a_u over a vertex set S cancels intra-S edges, leaving exactly
// the outgoing edges of S — the property the connectivity algorithm rides.
//
// GraphSketchBuilder fixes the shared per-phase randomness (seed) and owns
// one windowed power table (sketch/power_table.hpp): r_c^i is the product
// of D = ceil(bits(U-1)/9) L1-resident lookups, whatever n is. Building a
// part's sketch costs O(1) per incident edge and copy: each edge adds
// (±1, ±i, ±r^i) into its top cell z_c(i) only, and one backward pass per
// copy, cell[l] += cell[l+1] over the used prefix, turns top cells into
// the per-level sums. Cell arithmetic is exact (s0 in wrapping Z, s1 and
// s2 in F_p), so the cells equal what L0Sampler::update's level walk
// builds, bit for bit. The same table verifies the proxy's samples
// (L0Sampler::sample(const PowerTable&)).
//
// The weight threshold (`max_weight`) implements the MST elimination step
// of Section 3.1: entries for edges heavier than the threshold are zeroed
// *at construction*, a purely local operation for the home machine.

#include <cstdint>
#include <limits>
#include <span>
#include <utility>

#include "cluster/distributed_graph.hpp"
#include "sketch/l0_sampler.hpp"
#include "sketch/power_table.hpp"

namespace kmm {

inline constexpr Weight kNoWeightLimit = std::numeric_limits<Weight>::max();

class GraphSketchBuilder {
 public:
  /// `seed` is the shared per-(phase, iteration) sketch seed; `copies`
  /// trades failure probability against sketch size.
  GraphSketchBuilder(std::size_t n, std::uint64_t seed, int copies = 3);

  /// Rebind to a new per-iteration seed: refills the power table in place
  /// (O(copies · D · 2^w) field mults, independent of n; zero allocations),
  /// so a long-lived builder costs no heap traffic per iteration. n and
  /// copies are fixed at construction.
  void rebind(std::uint64_t seed) { powers_.rebind(seed); }

  /// Sketch of a single vertex's incidence vector, restricted to edges of
  /// weight <= max_weight.
  [[nodiscard]] L0Sampler sketch_vertex(const DistributedGraph& dg, Vertex u,
                                        Weight max_weight = kNoWeightLimit) const;

  /// Combined sketch of a component part (sum over the part's vertices),
  /// built directly without materializing per-vertex sketches.
  [[nodiscard]] L0Sampler sketch_part(const DistributedGraph& dg,
                                      std::span<const Vertex> part,
                                      Weight max_weight = kNoWeightLimit) const;

  /// Allocation-free flavor: accumulate the part into a caller-provided
  /// (typically pooled) sampler. `sink` must be zeroed — fresh or reset;
  /// the closing suffix-sum pass would double-count cells it already held —
  /// and bound to this builder's (universe, params, seed). The engine's SS1
  /// hot path.
  void accumulate_part(const DistributedGraph& dg, std::span<const Vertex> part,
                       Weight max_weight, L0Sampler& sink) const;

  /// An empty sketch with this builder's construction parameters
  /// (accumulator for proxy-side summation / deserialization target).
  [[nodiscard]] L0Sampler empty_sketch() const;

  /// Decode a sampled edge index back to endpoints (x < y).
  [[nodiscard]] std::pair<Vertex, Vertex> decode(std::uint64_t index) const;

  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] const L0Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return powers_.seed(); }
  /// The fingerprint powers of the current seed; L0Sampler::sample takes it.
  [[nodiscard]] const PowerTable& powers() const noexcept { return powers_; }

 private:
  std::size_t n_;
  std::uint64_t universe_;
  L0Params params_;
  PowerTable powers_;
};

}  // namespace kmm
