#include "core/mst.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagAnnounce = 61;
}

BoruvkaResult minimum_spanning_forest(Cluster& cluster, const DistributedGraph& dg,
                                      const BoruvkaConfig& config,
                                      bool require_unique_weights) {
  if (dg.num_vertices() < 2) {
    BoruvkaResult trivial;
    trivial.labels.assign(dg.num_vertices(), 0);
    trivial.num_components = dg.num_vertices();
    trivial.converged = true;
    trivial.forest_by_machine.resize(cluster.k());
    trivial.mst_by_machine.resize(cluster.k());
    return trivial;
  }
  // The global uniqueness scan needs the whole graph; shard-direct builds
  // never have one, so there the caller vouches for distinct weights (the
  // streaming generators draw them from a per-edge-index PRF).
  if (require_unique_weights && dg.materialized()) {
    KMM_CHECK_MSG(dg.graph().has_unique_weights(),
                  "MST exactness requires distinct edge weights "
                  "(see with_unique_weights)");
  }
  return run_boruvka(cluster, dg, config, BoruvkaMode::kMst);
}

StrictMstOutput announce_mst_to_home_machines(Cluster& cluster, const DistributedGraph& dg,
                                              const BoruvkaResult& mst,
                                              const RuntimeConfig& config) {
  const StatsScope scope(cluster);
  const MachineId k = cluster.k();
  KMM_CHECK(mst.mst_by_machine.size() == k);
  const std::uint64_t label_bits =
      bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2));
  Runtime rt(cluster, config);

  rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
    for (const auto& e : mst.mst_by_machine[i]) {
      for (const MachineId home : {dg.home(e.u), dg.home(e.v)}) {
        out.send(home, kTagAnnounce, {e.u, e.v, e.w}, 2 * label_bits + 64);
      }
    }
  });

  // Collect + sort per home machine; each handler touches only its own
  // edges_by_home slot, and nothing is sent, so this superstep is free.
  StrictMstOutput out;
  out.edges_by_home.resize(k);
  rt.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
    for (const auto& msg : inbox) {
      if (msg.tag != kTagAnnounce) continue;
      KMM_DCHECK(msg.payload_words() >= 3);
      out.edges_by_home[i].push_back(WeightedEdge{static_cast<Vertex>(msg.payload()[0]),
                                                  static_cast<Vertex>(msg.payload()[1]),
                                                  msg.payload()[2]});
    }
    auto& edges = out.edges_by_home[i];
    std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
      return std::tuple{a.u, a.v, a.w} < std::tuple{b.u, b.v, b.w};
    });
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
  });
  out.stats = scope.snapshot();
  return out;
}

}  // namespace kmm
