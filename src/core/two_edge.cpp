#include "core/two_edge.hpp"

#include <algorithm>

#include "core/connectivity.hpp"
#include "graph/algorithms.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagAnnounceForest = 81;
constexpr std::uint32_t kTagCertificate = 82;
constexpr std::uint32_t kTagVerdict = 83;
}  // namespace

TwoEdgeResult two_edge_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                    const BoruvkaConfig& config) {
  const StatsScope total(cluster);
  TwoEdgeResult out;
  const std::size_t n = dg.num_vertices();
  const MachineId k = cluster.k();
  if (n < 2) {
    out.stats = total.snapshot();
    return out;  // degenerate: not 2-edge-connected by convention
  }
  const std::uint64_t label_bits = bits_for(n);

  // 1. First spanning forest.
  const StatsScope forests(cluster);
  BoruvkaConfig c1 = config;
  c1.seed = split(config.seed, 0x2ec1);
  const auto run1 = connected_components(cluster, dg, c1);
  out.connected = run1.num_components == 1;
  if (!out.connected) {
    out.stats = total.snapshot();
    return out;  // disconnected graphs are not 2-edge-connected
  }
  const RunStats forest1 = forests.snapshot();

  // The forest runs spin up their own engine runtime; this one drives the
  // certificate shipping steps with the same thread budget. Constructed
  // here, after run1, so its pool doesn't sit idle through the forest runs.
  Runtime rt(cluster, config);

  // 2. Announce F1 edges to both endpoints' home machines so G \ F1 is
  //    constructible locally.
  const StatsScope collect(cluster);
  rt.step([&](MachineId i, std::span<const Message>, Outbox& outbox) {
    for (const auto& [u, v] : run1.forest_by_machine[i]) {
      for (const MachineId home : {dg.home(u), dg.home(v)}) {
        outbox.send(home, kTagAnnounceForest, {u, v}, 2 * label_bits);
      }
    }
  });
  // Free collection superstep: each handler reads only its own inbox into
  // its own slot; the slots are concatenated in machine order below.
  std::vector<std::vector<std::pair<Vertex, Vertex>>> f1_by_machine(k);
  rt.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
    for (const auto& msg : inbox) {
      if (msg.tag == kTagAnnounceForest) {
        KMM_DCHECK(msg.payload_words() >= 2);
        f1_by_machine[i].emplace_back(static_cast<Vertex>(msg.payload()[0]),
                                      static_cast<Vertex>(msg.payload()[1]));
      }
    }
  });
  std::vector<std::pair<Vertex, Vertex>> f1;
  for (MachineId i = 0; i < k; ++i) {
    f1.insert(f1.end(), f1_by_machine[i].begin(), f1_by_machine[i].end());
  }
  std::sort(f1.begin(), f1.end());
  f1.erase(std::unique(f1.begin(), f1.end()), f1.end());
  const RunStats announce = collect.snapshot();

  // 3-4. Second forest on G \ F1 (home machines strip their announced
  //      forest edges — a purely local construction).
  const DistributedGraph residual_dg = dg.without_edges(f1, config.pool);
  const StatsScope forests2(cluster);
  BoruvkaConfig c2 = config;
  c2.seed = split(config.seed, 0x2ec2);
  const auto run2 = connected_components(cluster, residual_dg, c2);
  const RunStats forest2 = forests2.snapshot();
  out.forest_stats.rounds = forest1.rounds + forest2.rounds;
  out.forest_stats.messages = forest1.messages + forest2.messages;
  out.forest_stats.bits = forest1.bits + forest2.bits;

  // 5. Ship the certificate H = F1 ∪ F2 to the referee (machine 0) and
  //    decide locally: G is 2-edge-connected iff H is (Thurimella's sparse
  //    certificate for 2-edge-connectivity).
  const StatsScope ship(cluster);
  rt.step([&](MachineId i, std::span<const Message>, Outbox& outbox) {
    for (const auto& [u, v] : run1.forest_by_machine[i]) {
      outbox.send(0, kTagCertificate, {u, v}, 2 * label_bits);
    }
    for (const auto& [u, v] : run2.forest_by_machine[i]) {
      outbox.send(0, kTagCertificate, {u, v}, 2 * label_bits);
    }
  });
  // Referee step: only machine 0 computes, so run inline; the verdict
  // broadcast is delivered by this step's superstep.
  rt.step(
      [&](MachineId i, std::span<const Message> inbox, Outbox& outbox) {
        if (i != 0) return;
        std::vector<WeightedEdge> cert;
        for (const auto& msg : inbox) {
          if (msg.tag != kTagCertificate) continue;
          KMM_DCHECK(msg.payload_words() >= 2);
          const auto u = static_cast<Vertex>(msg.payload()[0]);
          const auto v = static_cast<Vertex>(msg.payload()[1]);
          cert.push_back(WeightedEdge{std::min(u, v), std::max(u, v), 1});
        }
        std::sort(cert.begin(), cert.end(),
                  [](const WeightedEdge& a, const WeightedEdge& b) {
                    return std::pair{a.u, a.v} < std::pair{b.u, b.v};
                  });
        cert.erase(std::unique(cert.begin(), cert.end()), cert.end());
        out.certificate_edges = cert.size();
        KMM_CHECK_MSG(out.certificate_edges <= 2 * (n - 1), "certificate too large");

        const Graph h(n, std::move(cert));
        out.two_edge_connected = ref::is_two_edge_connected(h);
        for (MachineId j = 1; j < k; ++j) {
          outbox.send(j, kTagVerdict, {out.two_edge_connected ? 1ULL : 0ULL}, 1);
        }
      },
      StepMode::kInline);
  const RunStats shipped = ship.snapshot();
  out.collect_stats.rounds = announce.rounds + shipped.rounds;
  out.collect_stats.messages = announce.messages + shipped.messages;
  out.collect_stats.bits = announce.bits + shipped.bits;

  out.stats = total.snapshot();
  return out;
}

}  // namespace kmm
