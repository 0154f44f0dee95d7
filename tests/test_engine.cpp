// BoruvkaEngine internals: caps, output bookkeeping, configuration corners,
// and cluster-ledger conservation properties.

#include <gtest/gtest.h>

#include <map>

#include "kmm.hpp"

namespace kmm {
namespace {

TEST(Engine, PhaseCapStopsEarlyWithoutConvergence) {
  const Graph g = gen::path(256);  // needs ~log n phases
  Cluster cluster(ClusterConfig::for_graph(256, 4));
  const DistributedGraph dg(g, VertexPartition::random(256, 4, 1));
  BoruvkaConfig cfg;
  cfg.seed = 3;
  cfg.max_phases = 1;
  const auto res = connected_components(cluster, dg, cfg);
  EXPECT_FALSE(res.converged);
  EXPECT_EQ(res.phases.size(), 1u);
  // One phase merges roughly half the components but not all.
  EXPECT_GT(res.num_components, 1u);
  EXPECT_LT(res.num_components, 256u);
  // The counting protocol still reports the (partial) label state exactly.
  std::set<Label> distinct(res.labels.begin(), res.labels.end());
  EXPECT_EQ(res.num_components, distinct.size());
}

TEST(Engine, FirstPhaseSeesEveryVertexAsComponent) {
  Rng rng(5);
  const Graph g = gen::gnm(100, 200, rng);
  Cluster cluster(ClusterConfig::for_graph(100, 4));
  const DistributedGraph dg(g, VertexPartition::random(100, 4, 7));
  const auto res = connected_components(cluster, dg, {});
  ASSERT_FALSE(res.phases.empty());
  EXPECT_EQ(res.phases.front().components_before, 100u);
  EXPECT_EQ(res.phases.front().phase, 0u);
}

TEST(Engine, ForestEdgesRecordedExactlyOnce) {
  Rng rng(9);
  const Graph g = gen::connected_gnm(150, 400, rng);
  Cluster cluster(ClusterConfig::for_graph(150, 8));
  const DistributedGraph dg(g, VertexPartition::random(150, 8, 11));
  const auto res = connected_components(cluster, dg, {});
  std::map<std::pair<Vertex, Vertex>, int> seen;
  for (const auto& per_machine : res.forest_by_machine) {
    for (const auto& e : per_machine) ++seen[e];
  }
  EXPECT_EQ(seen.size(), 149u);  // n - 1 merge edges
  for (const auto& [edge, count] : seen) {
    EXPECT_EQ(count, 1) << "edge recorded " << count << " times";
  }
}

TEST(Engine, MstEdgeCountMatchesComponents) {
  Rng rng(13);
  Graph g = with_unique_weights(
      with_random_weights(gen::multi_component(120, 300, 4, rng), rng));
  Cluster cluster(ClusterConfig::for_graph(120, 4));
  const DistributedGraph dg(g, VertexPartition::random(120, 4, 15));
  const auto res = minimum_spanning_forest(cluster, dg);
  EXPECT_EQ(res.mst_edges().size(), 120u - res.num_components);
}

TEST(Engine, SingleCopySketchStillCorrect) {
  // One l0 repetition fails ~28% of queries; retries with fresh seeds keep
  // the algorithm correct, just slower.
  Rng rng(17);
  const Graph g = gen::connected_gnm(120, 280, rng);
  Cluster cluster(ClusterConfig::for_graph(120, 4));
  const DistributedGraph dg(g, VertexPartition::random(120, 4, 19));
  BoruvkaConfig cfg;
  cfg.seed = 21;
  cfg.sketch_copies = 1;
  const auto res = connected_components(cluster, dg, cfg);
  EXPECT_EQ(canonical_labels(res.labels), ref::component_labels(g));
  EXPECT_TRUE(res.converged);
}

TEST(Engine, CoordinatorPlusCoinFlipStillCorrect) {
  Rng rng(23);
  const Graph g = gen::gnm(100, 220, rng);
  Cluster cluster(ClusterConfig::for_graph(100, 4));
  const DistributedGraph dg(g, VertexPartition::random(100, 4, 25));
  BoruvkaConfig cfg;
  cfg.seed = 27;
  cfg.single_coordinator = true;
  cfg.merge_rule = MergeRule::kCoinFlip;
  const auto res = connected_components(cluster, dg, cfg);
  EXPECT_EQ(canonical_labels(res.labels), ref::component_labels(g));
}

TEST(Engine, CountingToggleAgrees) {
  Rng rng(29);
  const Graph g = gen::multi_component(120, 260, 5, rng);
  auto run = [&](bool count) {
    Cluster cluster(ClusterConfig::for_graph(120, 4));
    const DistributedGraph dg(g, VertexPartition::random(120, 4, 31));
    BoruvkaConfig cfg;
    cfg.seed = 33;
    cfg.count_components = count;
    return connected_components(cluster, dg, cfg).num_components;
  };
  EXPECT_EQ(run(true), run(false));
  EXPECT_EQ(run(true), 5u);
}

TEST(Engine, RoundsMonotoneInPhases) {
  Rng rng(35);
  const Graph g = gen::connected_gnm(200, 450, rng);
  Cluster cluster(ClusterConfig::for_graph(200, 8));
  const DistributedGraph dg(g, VertexPartition::random(200, 8, 37));
  const auto res = connected_components(cluster, dg, {});
  std::uint64_t sum = 0;
  for (const auto& ph : res.phases) {
    EXPECT_GT(ph.rounds, 0u);
    sum += ph.rounds;
  }
  // Phase rounds + the inter-phase control and counting traffic = total.
  EXPECT_LE(sum, res.stats.rounds);
  EXPECT_GE(sum + 50 + 10 * res.phases.size(), res.stats.rounds);
}

TEST(LedgerConservation, SentEqualsReceived) {
  Rng rng(39);
  const Graph g = gen::gnm(150, 350, rng);
  Cluster cluster(ClusterConfig::for_graph(150, 6));
  const DistributedGraph dg(g, VertexPartition::random(150, 6, 41));
  (void)connected_components(cluster, dg, {});
  std::uint64_t sent = 0, received = 0;
  for (MachineId i = 0; i < 6; ++i) {
    sent += cluster.stats().sent_bits_by_machine[i];
    received += cluster.stats().received_bits_by_machine[i];
  }
  EXPECT_EQ(sent, received);
  EXPECT_EQ(sent, cluster.stats().total_bits);
}

TEST(LedgerConservation, MaxLinkBoundsRoundsPerSuperstep) {
  Rng rng(43);
  const Graph g = gen::gnm(150, 350, rng);
  Cluster cluster(ClusterConfig::for_graph(150, 6));
  const DistributedGraph dg(g, VertexPartition::random(150, 6, 45));
  const auto res = connected_components(cluster, dg, {});
  // rounds >= supersteps (each costs >= 1) and
  // rounds <= supersteps * ceil(max_link/B) + analytic charges.
  EXPECT_GE(res.stats.rounds, res.stats.supersteps);
  const auto ceil_worst =
      (cluster.stats().max_link_bits + cluster.bandwidth_bits() - 1) /
      cluster.bandwidth_bits();
  EXPECT_LE(res.stats.rounds,
            res.stats.supersteps * ceil_worst + 100000 /* analytic relay */);
}

TEST(Engine, DifferentKSameAnswerSameGraph) {
  Rng rng(47);
  const Graph g = gen::multi_component(200, 500, 3, rng);
  const auto expected = ref::component_labels(g);
  for (const MachineId k : {MachineId{2}, MachineId{3}, MachineId{7}, MachineId{13},
                            MachineId{29}}) {
    Cluster cluster(ClusterConfig::for_graph(200, k));
    const DistributedGraph dg(g, VertexPartition::random(200, k, split(49, k)));
    BoruvkaConfig cfg;
    cfg.seed = split(51, k);
    const auto res = connected_components(cluster, dg, cfg);
    EXPECT_EQ(canonical_labels(res.labels), expected) << "k=" << k;
  }
}

TEST(Engine, WeightOneGraphMstEqualsSpanningTree) {
  // With unique weights derived from all-1 weights, the MST is *a* spanning
  // tree and the algorithm must still terminate with exactly n-1 edges.
  const Graph g = with_unique_weights(gen::grid(8, 8));
  Cluster cluster(ClusterConfig::for_graph(64, 4));
  const DistributedGraph dg(g, VertexPartition::random(64, 4, 53));
  const auto res = minimum_spanning_forest(cluster, dg);
  EXPECT_EQ(res.mst_edges().size(), 63u);
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const auto& e : res.mst_edges()) pairs.emplace_back(e.u, e.v);
  EXPECT_TRUE(ref::is_spanning_forest(g, pairs));
}

}  // namespace
}  // namespace kmm
