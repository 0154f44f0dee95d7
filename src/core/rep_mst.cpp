#include "core/rep_mst.hpp"

#include <algorithm>

#include "core/connectivity.hpp"
#include "core/mst.hpp"
#include "graph/algorithms.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"
#include "util/union_find.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagEdge = 1;
}

RepMstResult rep_model_mst(Cluster& cluster, const Graph& graph, const EdgePartition& edges,
                           std::uint64_t seed, const BoruvkaConfig& config) {
  const StatsScope total_scope(cluster);
  const std::size_t n = graph.num_vertices();
  const MachineId k = cluster.k();
  const std::uint64_t label_bits = bits_for(std::max<std::uint64_t>(n, 2));
  KMM_CHECK_MSG(graph.has_unique_weights(),
                "REP MST exactness requires distinct edge weights");
  Runtime rt(cluster, config);

  // Stage 1 — local filter. Each machine runs Kruskal over its own edges
  // (free local computation, one silent parallel superstep); non-forest
  // edges are safely discarded by the cycle property of MSTs. Handlers only
  // touch their machine's owned/kept slots.
  const auto& all_edges = graph.edges();
  std::vector<std::vector<std::size_t>> owned(k);
  for (std::size_t e = 0; e < all_edges.size(); ++e) owned[edges.home(e)].push_back(e);

  RepMstResult result;
  std::vector<std::vector<WeightedEdge>> kept(k);
  rt.step([&](MachineId i, std::span<const Message>, Outbox&) {
    auto& mine = owned[i];
    std::sort(mine.begin(), mine.end(), [&](std::size_t a, std::size_t b) {
      return all_edges[a].w < all_edges[b].w;
    });
    UnionFind uf(n);
    for (const std::size_t e : mine) {
      if (uf.unite(all_edges[e].u, all_edges[e].v)) kept[i].push_back(all_edges[e]);
    }
  });
  for (MachineId i = 0; i < k; ++i) result.filtered_edges += kept[i].size();

  // Stage 2 — reroute survivors to an RVP. Both endpoints' new home
  // machines need the edge in their adjacency.
  const StatsScope reroute_scope(cluster);
  const VertexPartition rvp =
      VertexPartition::random(n, k, split(seed, 0x9e2fc1));
  rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
    for (const auto& e : kept[i]) {
      for (const MachineId dst : {rvp.home(e.u), rvp.home(e.v)}) {
        out.send(dst, kTagEdge, {e.u, e.v, e.w}, 2 * label_bits + 64);
      }
    }
  });
  result.reroute_stats = reroute_scope.snapshot();

  // Stage 3 — solve under RVP on the filtered union graph (each original
  // edge lives on exactly one machine, so survivors are unique).
  std::vector<WeightedEdge> union_edges;
  for (MachineId i = 0; i < k; ++i) {
    union_edges.insert(union_edges.end(), kept[i].begin(), kept[i].end());
  }
  std::sort(union_edges.begin(), union_edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return std::pair{a.u, a.v} < std::pair{b.u, b.v};
            });
  const Graph filtered(n, std::move(union_edges));
  const DistributedGraph dg(filtered, rvp);
  result.rvp_result = minimum_spanning_forest(cluster, dg, config);
  result.mst_edges = result.rvp_result.mst_edges();
  result.stats = total_scope.snapshot();
  return result;
}

RepConnectivityResult rep_model_connectivity(Cluster& cluster, const Graph& graph,
                                             const EdgePartition& edges,
                                             std::uint64_t seed,
                                             const BoruvkaConfig& config) {
  const StatsScope total_scope(cluster);
  const std::size_t n = graph.num_vertices();
  const MachineId k = cluster.k();
  const std::uint64_t label_bits = bits_for(std::max<std::uint64_t>(n, 2));
  Runtime rt(cluster, config);

  // Stage 1 — each machine keeps a spanning forest of its own edges
  // (original edge order preserved per machine), in one silent parallel
  // superstep.
  const auto& all_edges = graph.edges();
  std::vector<std::vector<std::size_t>> owned(k);
  for (std::size_t e = 0; e < all_edges.size(); ++e) owned[edges.home(e)].push_back(e);

  RepConnectivityResult result;
  std::vector<std::vector<WeightedEdge>> kept(k);
  rt.step([&](MachineId i, std::span<const Message>, Outbox&) {
    UnionFind uf(n);
    for (const std::size_t e : owned[i]) {
      if (uf.unite(all_edges[e].u, all_edges[e].v)) kept[i].push_back(all_edges[e]);
    }
  });
  for (MachineId i = 0; i < k; ++i) result.filtered_edges += kept[i].size();

  // Stage 2 — reroute the survivors to an RVP.
  const StatsScope reroute_scope(cluster);
  const VertexPartition rvp = VertexPartition::random(n, k, split(seed, 0x5e9fc2));
  rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
    for (const auto& e : kept[i]) {
      for (const MachineId dst : {rvp.home(e.u), rvp.home(e.v)}) {
        out.send(dst, kTagEdge, {e.u, e.v}, 2 * label_bits);
      }
    }
  });
  result.reroute_stats = reroute_scope.snapshot();

  // Stage 3 — RVP connectivity on the union of the local forests (the same
  // edge may survive on only one machine, so no duplicates).
  std::vector<WeightedEdge> union_edges;
  for (MachineId i = 0; i < k; ++i) {
    union_edges.insert(union_edges.end(), kept[i].begin(), kept[i].end());
  }
  std::sort(union_edges.begin(), union_edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return std::pair{a.u, a.v} < std::pair{b.u, b.v};
            });
  const Graph filtered(n, std::move(union_edges));
  const DistributedGraph dg(filtered, rvp);
  auto inner = connected_components(cluster, dg, config);
  result.labels = std::move(inner.labels);
  result.num_components = inner.num_components;
  result.stats = total_scope.snapshot();
  return result;
}

}  // namespace kmm
