#include "core/referee.hpp"

#include <limits>

#include "util/assert.hpp"
#include "util/codec.hpp"
#include "util/union_find.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagEdge = 1;
constexpr std::uint32_t kTagLabel = 2;
}  // namespace

RefereeResult referee_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                   const RefereeConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();
  const std::uint64_t label_bits = bits_for(std::max<std::uint64_t>(n, 2));
  Runtime rt(cluster, config);

  // Every machine ships each hosted edge (counted once, from the lower
  // endpoint's home) to the referee, machine 0. Handlers only read the
  // immutable distributed graph, so the shipment parallelizes freely.
  rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
    for (const Vertex v : dg.vertices_of(i)) {
      for (const auto& he : dg.neighbors(v)) {
        if (v < he.to) {
          out.send(0, kTagEdge, {v, he.to}, 2 * label_bits);
        }
      }
    }
  });

  // Referee-side solve: only machine 0 computes, so there is no
  // parallelism to harvest — run inline. Without the broadcast this
  // superstep sends nothing and is free.
  RefereeResult result;
  result.labels.resize(n);
  rt.step(
      [&](MachineId i, std::span<const Message> inbox, Outbox& out) {
        if (i != 0) return;
        UnionFind uf(n);
        for (const auto& msg : inbox) {
          if (msg.tag == kTagEdge) {
            KMM_DCHECK(msg.payload_words() >= 2);
            uf.unite(static_cast<Vertex>(msg.payload()[0]),
                     static_cast<Vertex>(msg.payload()[1]));
          }
        }
        result.num_components = uf.component_count();
        std::vector<Vertex> smallest(n, std::numeric_limits<Vertex>::max());
        for (Vertex v = 0; v < n; ++v) {
          const Vertex root = uf.find(v);
          smallest[root] = std::min(smallest[root], v);
        }
        for (Vertex v = 0; v < n; ++v) result.labels[v] = smallest[uf.find(v)];
        if (config.broadcast_labels) {
          for (Vertex v = 0; v < n; ++v) {
            const MachineId home = dg.home(v);
            if (home != 0) out.send(home, kTagLabel, {v, result.labels[v]}, 2 * label_bits);
          }
        }
      },
      StepMode::kInline);

  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
