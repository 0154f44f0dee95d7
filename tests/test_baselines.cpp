// Baselines: flooding, referee-collect, and the REP-model MST pipeline.

#include <gtest/gtest.h>

#include "kmm.hpp"

namespace kmm {
namespace {

TEST(Flooding, MatchesReferenceOnFamilies) {
  Rng rng(1);
  const std::vector<Graph> graphs = {
      gen::path(80),          gen::cycle(81),
      gen::star(60),          gen::grid(8, 9),
      gen::gnm(120, 240, rng), gen::multi_component(120, 260, 4, rng),
      gen::clique_chain(6, 6)};
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    const Graph& g = graphs[i];
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 4));
    const DistributedGraph dg(
        g, VertexPartition::random(g.num_vertices(), 4, split(3, i)));
    const auto result = flooding_connectivity(cluster, dg);
    EXPECT_TRUE(result.converged);
    EXPECT_EQ(result.labels.size(), g.num_vertices());
    std::vector<Vertex> got(result.labels.begin(), result.labels.end());
    EXPECT_EQ(got, ref::component_labels(g)) << "family " << i;
    EXPECT_EQ(result.num_components, ref::component_count(g));
  }
}

TEST(Flooding, SuperstepsTrackDiameterNotN) {
  // On a path hosted by few machines, local propagation collapses whole
  // machine-segments per superstep, so supersteps ~ segments, not hops.
  const Graph g = gen::path(400);
  Cluster cluster(ClusterConfig::for_graph(400, 4));
  const DistributedGraph dg(g, VertexPartition::random(400, 4, 7));
  const auto result = flooding_connectivity(cluster, dg);
  EXPECT_TRUE(result.converged);
  EXPECT_GE(result.supersteps, 2u);
  EXPECT_LE(result.supersteps, 402u);
}

TEST(Flooding, EmptyGraph) {
  const Graph g(50, {});
  Cluster cluster(ClusterConfig::for_graph(50, 4));
  const DistributedGraph dg(g, VertexPartition::random(50, 4, 9));
  const auto result = flooding_connectivity(cluster, dg);
  EXPECT_EQ(result.num_components, 50u);
  for (Vertex v = 0; v < 50; ++v) EXPECT_EQ(result.labels[v], v);
}

TEST(Referee, MatchesReference) {
  Rng rng(11);
  const Graph g = gen::multi_component(140, 320, 3, rng);
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 6));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 6, 13));
  const auto result = referee_connectivity(cluster, dg);
  std::vector<Vertex> got(result.labels.begin(), result.labels.end());
  EXPECT_EQ(got, ref::component_labels(g));
  EXPECT_EQ(result.num_components, 3u);
}

TEST(Referee, RoundsScaleWithEdges) {
  Rng rng(15);
  const Graph sparse = gen::gnm(200, 200, rng);
  const Graph dense = gen::gnm(200, 2000, rng);
  const auto run = [](const Graph& g) {
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 4));
    const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 4, 17));
    const RefereeConfig collect_only{{}, /*broadcast_labels=*/false};
    return referee_connectivity(cluster, dg, collect_only).stats.rounds;
  };
  // Collecting 10x the edges costs ~10x the rounds (referee bottleneck).
  const double ratio =
      static_cast<double>(run(dense)) / static_cast<double>(run(sparse));
  EXPECT_GT(ratio, 5.0);
}

TEST(RepMst, MatchesKruskal) {
  for (const std::uint64_t seed : {21ULL, 23ULL}) {
    Rng rng(seed);
    Graph g = with_unique_weights(
        with_random_weights(gen::connected_gnm(100, 300, rng), rng));
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
    const auto ep = EdgePartition::random(g.num_edges(), 8, split(seed, 1));
    const auto result = rep_model_mst(cluster, g, ep, split(seed, 2));
    const auto expected = ref::minimum_spanning_forest(g);
    ASSERT_EQ(result.mst_edges.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(result.mst_edges[i].u, expected[i].u);
      EXPECT_EQ(result.mst_edges[i].v, expected[i].v);
    }
  }
}

TEST(RepMst, FilterKeepsForestPerMachine) {
  Rng rng(29);
  Graph g = with_unique_weights(
      with_random_weights(gen::connected_gnm(120, 600, rng), rng));
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 4));
  const auto ep = EdgePartition::random(g.num_edges(), 4, 31);
  const auto result = rep_model_mst(cluster, g, ep, 33);
  // Each machine keeps at most n-1 edges (a forest), so the union is at
  // most k(n-1) — and never more than m.
  EXPECT_LE(result.filtered_edges, 4 * (g.num_vertices() - 1));
  EXPECT_LE(result.filtered_edges, g.num_edges());
  EXPECT_GE(result.filtered_edges, g.num_vertices() - 1);  // MST survives
  EXPECT_GT(result.reroute_stats.rounds, 0u);
}

TEST(RepConnectivity, MatchesReference) {
  Rng rng(61);
  for (int trial = 0; trial < 4; ++trial) {
    const Graph g = gen::multi_component(140, 400, 1 + trial, rng);
    Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 6));
    const auto ep = EdgePartition::random(g.num_edges(), 6, split(63, trial));
    const auto res = rep_model_connectivity(cluster, g, ep, split(65, trial));
    EXPECT_EQ(canonical_labels(res.labels), ref::component_labels(g)) << "trial " << trial;
    EXPECT_EQ(res.num_components, ref::component_count(g));
    // Each machine keeps at most a spanning forest.
    EXPECT_LE(res.filtered_edges, 6 * (g.num_vertices() - 1));
  }
}

TEST(RepMst, DisconnectedInput) {
  Rng rng(37);
  Graph g = with_unique_weights(
      with_random_weights(gen::multi_component(80, 200, 4, rng), rng));
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 4));
  const auto ep = EdgePartition::random(g.num_edges(), 4, 39);
  const auto result = rep_model_mst(cluster, g, ep, 41);
  EXPECT_EQ(result.mst_edges.size(), g.num_vertices() - 4);
}

}  // namespace
}  // namespace kmm
