// The Section 3.1 MST algorithm: exact agreement with Kruskal under unique
// weights, output criterion, forests on disconnected inputs.

#include <gtest/gtest.h>

#include <algorithm>

#include "kmm.hpp"

namespace kmm {
namespace {

BoruvkaResult run_mst(const Graph& g, MachineId k, std::uint64_t seed) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), k));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, split(seed, 1)));
  BoruvkaConfig cfg;
  cfg.seed = split(seed, 2);
  return minimum_spanning_forest(cluster, dg, cfg);
}

void expect_exact_mst(const Graph& g, const BoruvkaResult& result) {
  const auto expected = ref::minimum_spanning_forest(g);
  const auto got = result.mst_edges();
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].u, expected[i].u);
    EXPECT_EQ(got[i].v, expected[i].v);
    EXPECT_EQ(got[i].w, expected[i].w);
  }
  // The MST is a spanning forest of g.
  std::vector<std::pair<Vertex, Vertex>> pairs;
  for (const auto& e : got) pairs.emplace_back(e.u, e.v);
  EXPECT_TRUE(ref::is_spanning_forest(g, pairs));
}

Graph weighted(Graph g, std::uint64_t seed, Weight limit = 100000) {
  Rng rng(seed);
  return with_unique_weights(with_random_weights(g, rng, limit));
}

TEST(Mst, SingleEdge) {
  const Graph g(2, {{0, 1, 5}});
  const auto result = run_mst(g, 2, 1);
  ASSERT_EQ(result.mst_edges().size(), 1u);
  EXPECT_EQ(result.mst_edges()[0].w, 5u);
}

TEST(Mst, Triangle) {
  const Graph g(3, {{0, 1, 1}, {1, 2, 2}, {0, 2, 3}});
  expect_exact_mst(g, run_mst(g, 2, 3));
}

TEST(Mst, PathAlreadyTree) {
  Rng rng(5);
  const Graph g = weighted(gen::path(60), 7);
  const auto result = run_mst(g, 4, 7);
  expect_exact_mst(g, result);
  EXPECT_EQ(result.mst_edges().size(), 59u);
}

TEST(Mst, RandomConnected) {
  for (const std::uint64_t seed : {11ULL, 13ULL, 17ULL}) {
    Rng rng(seed);
    const Graph g = weighted(gen::connected_gnm(120, 320, rng), seed);
    expect_exact_mst(g, run_mst(g, 8, seed));
  }
}

TEST(Mst, Grid) {
  const Graph g = weighted(gen::grid(10, 12), 19);
  expect_exact_mst(g, run_mst(g, 6, 19));
}

TEST(Mst, CompleteGraph) {
  const Graph g = weighted(gen::complete(40), 23);
  expect_exact_mst(g, run_mst(g, 4, 23));
}

TEST(Mst, DisconnectedYieldsForest) {
  Rng rng(29);
  const Graph g = weighted(gen::multi_component(150, 360, 5, rng), 29);
  const auto result = run_mst(g, 8, 29);
  expect_exact_mst(g, result);
  EXPECT_EQ(result.num_components, 5u);
  EXPECT_EQ(result.mst_edges().size(), g.num_vertices() - 5u);
}

TEST(Mst, HeavyTailWeights) {
  // Exponentially spread weights stress the elimination loop's threshold
  // descent (many distinct scales to cut through).
  Rng rng(31);
  Graph base = gen::connected_gnm(100, 260, rng);
  auto edges = base.edges();
  for (std::size_t i = 0; i < edges.size(); ++i) {
    edges[i].w = (1ULL << (i % 40)) + i;  // wildly spread, distinct
  }
  const Graph g(base.num_vertices(), std::move(edges));
  ASSERT_TRUE(g.has_unique_weights());
  expect_exact_mst(g, run_mst(g, 8, 31));
}

TEST(Mst, EqualStructureDifferentSeedsAgree) {
  Rng rng(37);
  const Graph g = weighted(gen::connected_gnm(90, 230, rng), 37);
  const auto a = run_mst(g, 4, 41);
  const auto b = run_mst(g, 4, 43);
  // MST is unique under distinct weights: any two runs agree exactly.
  const auto ea = a.mst_edges();
  const auto eb = b.mst_edges();
  EXPECT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].u, eb[i].u);
    EXPECT_EQ(ea[i].v, eb[i].v);
  }
}

TEST(Mst, OutputCriterionAtLeastOneMachine) {
  Rng rng(47);
  const Graph g = weighted(gen::connected_gnm(80, 200, rng), 47);
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 8, 1));
  const auto result = minimum_spanning_forest(cluster, dg);
  // Theorem 2(a): each MST edge is output by >= 1 machine; collect the
  // per-machine views and check the union covers Kruskal exactly.
  std::size_t machines_with_output = 0;
  for (const auto& per_machine : result.mst_by_machine) {
    if (!per_machine.empty()) ++machines_with_output;
  }
  EXPECT_GT(machines_with_output, 1u);  // outputs are spread across proxies
  expect_exact_mst(g, result);
}

TEST(Mst, PhaseCountLogarithmic) {
  Rng rng(53);
  const Graph g = weighted(gen::connected_gnm(256, 640, rng), 53);
  const auto result = run_mst(g, 8, 53);
  EXPECT_LE(result.phases.size(), 12 * bits_for(g.num_vertices()));
  EXPECT_TRUE(result.converged);
  // Elimination loops are the Section 3.1 log-factor: a handful of
  // iterations per phase, not hundreds.
  for (const auto& phase : result.phases) {
    EXPECT_LE(phase.elimination_iterations, 4 * bits_for(g.num_vertices()));
  }
}

TEST(MstDeath, RequiresUniqueWeights) {
  const Graph g(3, {{0, 1, 7}, {1, 2, 7}});
  Cluster cluster(ClusterConfig::for_graph(3, 2));
  const DistributedGraph dg(g, VertexPartition::random(3, 2, 1));
  EXPECT_DEATH((void)minimum_spanning_forest(cluster, dg), "distinct edge weights");
}

struct MstSweepCase {
  std::size_t n;
  MachineId k;
  std::uint64_t seed;
};

class MstSweep : public ::testing::TestWithParam<MstSweepCase> {};

TEST_P(MstSweep, MatchesKruskal) {
  const auto& c = GetParam();
  Rng rng(split(c.seed, c.n));
  const Graph g = weighted(gen::connected_gnm(c.n, 5 * c.n / 2, rng), split(c.seed, 3));
  expect_exact_mst(g, run_mst(g, c.k, c.seed));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MstSweep,
    ::testing::Values(MstSweepCase{16, 2, 1}, MstSweepCase{16, 4, 2},
                      MstSweepCase{48, 2, 3}, MstSweepCase{48, 8, 4},
                      MstSweepCase{96, 4, 5}, MstSweepCase{96, 8, 6},
                      MstSweepCase{160, 8, 7}, MstSweepCase{160, 16, 8}),
    [](const auto& info) {
      std::string name = "n";
      name += std::to_string(info.param.n);
      name += "_k";
      name += std::to_string(info.param.k);
      name += "_s";
      name += std::to_string(info.param.seed);
      return name;
    });

}  // namespace
}  // namespace kmm
