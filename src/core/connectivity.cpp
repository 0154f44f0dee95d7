#include "core/connectivity.hpp"

#include <algorithm>
#include <limits>

namespace kmm {

BoruvkaResult connected_components(Cluster& cluster, const DistributedGraph& dg,
                                   const BoruvkaConfig& config) {
  if (dg.num_vertices() < 2) {
    BoruvkaResult trivial;
    trivial.labels.assign(dg.num_vertices(), 0);
    trivial.num_components = dg.num_vertices();
    trivial.converged = true;
    trivial.forest_by_machine.resize(cluster.k());
    trivial.mst_by_machine.resize(cluster.k());
    return trivial;
  }
  return run_boruvka(cluster, dg, config, BoruvkaMode::kConnectivity);
}

std::vector<Vertex> canonical_labels(const std::vector<Label>& labels) {
  // Map every raw label to the smallest vertex id carrying it.
  const std::size_t n = labels.size();
  constexpr Vertex kUnset = std::numeric_limits<Vertex>::max();
  std::vector<Vertex> smallest(n, kUnset);
  for (std::size_t v = 0; v < n; ++v) {
    auto& slot = smallest[labels[v]];
    slot = std::min(slot, static_cast<Vertex>(v));
  }
  std::vector<Vertex> out(n);
  for (std::size_t v = 0; v < n; ++v) out[v] = smallest[labels[v]];
  return out;
}

}  // namespace kmm
