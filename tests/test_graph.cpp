// Graph container + sequential reference algorithm tests.

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"

namespace kmm {
namespace {

TEST(GraphContainer, CsrInvariants) {
  const Graph g(5, {{0, 1, 3}, {1, 2, 1}, {3, 1, 7}, {4, 0, 2}});
  EXPECT_EQ(g.num_vertices(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  std::size_t degree_sum = 0;
  for (Vertex v = 0; v < 5; ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * g.num_edges());
  EXPECT_EQ(g.degree(1), 3u);
  EXPECT_EQ(g.max_weight(), 7u);
}

TEST(GraphContainer, NeighborsSymmetric) {
  Rng rng(1);
  const Graph g = gen::gnm(40, 100, rng);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    for (const auto& he : g.neighbors(v)) {
      bool back = false;
      for (const auto& rev : g.neighbors(he.to)) back |= rev.to == v;
      EXPECT_TRUE(back);
    }
  }
}

TEST(GraphContainer, HasEdge) {
  const Graph g(4, {{0, 1, 1}, {2, 3, 1}});
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(0, 0));
  EXPECT_FALSE(g.has_edge(0, 99));
}

TEST(GraphContainer, EdgesCanonicalSorted) {
  const Graph g(4, {{3, 2, 1}, {1, 0, 1}, {2, 0, 1}});
  const auto& edges = g.edges();
  for (const auto& e : edges) EXPECT_LT(e.u, e.v);
  EXPECT_TRUE(std::is_sorted(edges.begin(), edges.end(),
                             [](const WeightedEdge& a, const WeightedEdge& b) {
                               return std::pair{a.u, a.v} < std::pair{b.u, b.v};
                             }));
}

TEST(GraphContainer, WithoutEdges) {
  const Graph g = gen::cycle(6);
  const Graph cut = g.without_edges({{0, 1}, {3, 4}});
  EXPECT_EQ(cut.num_edges(), 4u);
  EXPECT_FALSE(cut.has_edge(0, 1));
  EXPECT_TRUE(cut.has_edge(1, 2));
}

TEST(GraphContainer, EdgeIndexRoundtrip) {
  const std::uint64_t n = 100;
  for (Vertex x = 0; x < 10; ++x) {
    for (Vertex y = x + 1; y < 12; ++y) {
      const auto [a, b] = edge_endpoints(edge_index(x, y, n), n);
      EXPECT_EQ(a, x);
      EXPECT_EQ(b, y);
      EXPECT_EQ(edge_index(y, x, n), edge_index(x, y, n));  // symmetric
    }
  }
}

TEST(GraphContainer, MakeRejectsSelfLoopsAndParallel) {
  const auto self_loop = Graph::make(3, {{1, 1, 1}});
  ASSERT_FALSE(self_loop.ok());
  EXPECT_NE(self_loop.error().message.find("self-loops"), std::string::npos);

  // {1, 0} is the same undirected edge as {0, 1} — canonicalization must
  // catch the duplicate whichever orientation each copy arrived in.
  const auto parallel = Graph::make(3, {{0, 1, 1}, {1, 0, 2}});
  ASSERT_FALSE(parallel.ok());
  EXPECT_NE(parallel.error().message.find("parallel"), std::string::npos);

  const auto range = Graph::make(3, {{0, 7, 1}});
  ASSERT_FALSE(range.ok());
  EXPECT_NE(range.error().message.find("out of range"), std::string::npos);
}

TEST(GraphContainer, MakeRejectsZeroWeight) {
  // The MST engine needs weights >= 1; a weight-0 edge in external input
  // must come back as a diagnostic naming the edge, not abort a query later.
  const auto zero = Graph::make(4, {{0, 1, 0}, {1, 2, 5}, {2, 3, 7}});
  ASSERT_FALSE(zero.ok());
  EXPECT_NE(zero.error().message.find("weights must be positive"), std::string::npos);
  EXPECT_NE(zero.error().message.find("{0, 1}"), std::string::npos);
  EXPECT_TRUE(Graph::make(4, {{0, 1, 1}, {1, 2, 5}, {2, 3, 7}}).ok());
}

TEST(GraphContainer, MakeAcceptsValidEdgeList) {
  auto made = Graph::make(4, {{2, 0, 5}, {0, 1, 3}, {1, 2, 4}});
  ASSERT_TRUE(made.ok());
  const Graph g = std::move(made).value();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
  // Identical to the ctor path: same canonical edge order, same CSR.
  const Graph direct(4, {{2, 0, 5}, {0, 1, 3}, {1, 2, 4}});
  EXPECT_EQ(g.edges(), direct.edges());
}

TEST(Builder, Deduplicates) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.add_edge(0, 1));
  EXPECT_FALSE(b.add_edge(1, 0));  // same undirected edge
  EXPECT_FALSE(b.add_edge(2, 2));  // self loop ignored
  EXPECT_TRUE(b.add_edge(2, 3));
  EXPECT_TRUE(b.has_edge(0, 1));
  const Graph g = b.build();
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(Builder, UniqueWeightsPreserveOrder) {
  const Graph g(4, {{0, 1, 5}, {1, 2, 5}, {2, 3, 1}});
  EXPECT_FALSE(g.has_unique_weights());
  const Graph u = with_unique_weights(g);
  EXPECT_TRUE(u.has_unique_weights());
  // Strictly lighter edges stay strictly lighter.
  Weight w23 = 0, w01 = 0;
  for (const auto& e : u.edges()) {
    if (e.u == 2 && e.v == 3) w23 = e.w;
    if (e.u == 0 && e.v == 1) w01 = e.w;
  }
  EXPECT_LT(w23, w01);
}

TEST(Builder, RandomWeightsInRange) {
  Rng rng(3);
  const Graph g = with_random_weights(gen::cycle(20), rng, 50);
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.w, 1u);
    EXPECT_LE(e.w, 50u);
  }
}

TEST(RefAlgos, ComponentLabelsKnownGraphs) {
  const Graph two(5, {{0, 1, 1}, {3, 4, 1}});
  const auto labels = ref::component_labels(two);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[2]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[0], 0u);  // smallest member labels the component
  EXPECT_EQ(ref::component_count(two), 3u);
  EXPECT_FALSE(ref::is_connected(two));
  EXPECT_TRUE(ref::same_component(two, 0, 1));
  EXPECT_FALSE(ref::same_component(two, 0, 3));
}

TEST(RefAlgos, KruskalMatchesPrim) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = with_random_weights(gen::connected_gnm(60, 140, rng), rng);
    g = with_unique_weights(g);
    EXPECT_EQ(ref::msf_weight(g), ref::prim_mst_weight(g));
    const auto forest = ref::minimum_spanning_forest(g);
    EXPECT_EQ(forest.size(), g.num_vertices() - 1);
  }
}

TEST(RefAlgos, MsfOnDisconnected) {
  Rng rng(7);
  const Graph g = gen::multi_component(60, 120, 3, rng);
  const auto forest = ref::minimum_spanning_forest(g);
  EXPECT_EQ(forest.size(), g.num_vertices() - ref::component_count(g));
}

TEST(RefAlgos, Bipartiteness) {
  Rng rng(9);
  EXPECT_TRUE(ref::is_bipartite(gen::bipartite(20, 25, 80, rng)));
  EXPECT_TRUE(ref::is_bipartite(gen::path(30)));
  EXPECT_TRUE(ref::is_bipartite(gen::cycle(30)));   // even cycle
  EXPECT_FALSE(ref::is_bipartite(gen::cycle(31)));  // odd cycle
  EXPECT_FALSE(ref::is_bipartite(gen::complete(4)));
  EXPECT_FALSE(ref::is_bipartite(gen::odd_cycle_spoiler(20, 25, 80, rng)));
}

TEST(RefAlgos, CycleQueries) {
  EXPECT_FALSE(ref::has_cycle(gen::path(10)));
  EXPECT_FALSE(ref::has_cycle(gen::binary_tree(15)));
  EXPECT_TRUE(ref::has_cycle(gen::cycle(5)));
  const Graph lolly(4, {{0, 1, 1}, {1, 2, 1}, {2, 3, 1}, {1, 3, 1}});
  EXPECT_TRUE(ref::edge_on_cycle(lolly, 1, 2));
  EXPECT_FALSE(ref::edge_on_cycle(lolly, 0, 1));
}

TEST(RefAlgos, StoerWagnerKnownCuts) {
  Rng rng(11);
  EXPECT_EQ(ref::stoer_wagner_min_cut(gen::cycle(8)), 2u);
  EXPECT_EQ(ref::stoer_wagner_min_cut(gen::complete(6)), 5u);
  EXPECT_EQ(ref::stoer_wagner_min_cut(gen::path(6)), 1u);
  for (const std::size_t lambda : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const Graph g = gen::dumbbell(16, lambda, rng);
    EXPECT_EQ(ref::stoer_wagner_min_cut(g), lambda);
  }
  EXPECT_EQ(ref::stoer_wagner_min_cut(Graph(4, {{0, 1, 1}})), 0u);  // disconnected
}

TEST(RefAlgos, BfsDistancesAndDiameter) {
  const Graph p = gen::path(10);
  const auto dist = ref::bfs_distances(p, 0);
  for (std::size_t v = 0; v < 10; ++v) EXPECT_EQ(dist[v], v);
  EXPECT_EQ(ref::diameter_lower_bound(p), 9u);
  const Graph disc(4, {{0, 1, 1}});
  EXPECT_EQ(ref::bfs_distances(disc, 0)[3], std::numeric_limits<std::size_t>::max());
}

TEST(RefAlgos, SpanningForestChecker) {
  const Graph g = gen::cycle(5);
  EXPECT_TRUE(ref::is_spanning_forest(g, {{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
  EXPECT_FALSE(ref::is_spanning_forest(g, {{0, 1}, {1, 2}}));  // not spanning
  EXPECT_FALSE(
      ref::is_spanning_forest(g, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}}));  // cycle
  EXPECT_FALSE(
      ref::is_spanning_forest(g, {{0, 2}, {1, 2}, {2, 3}, {3, 4}}));  // non-edge
}

}  // namespace
}  // namespace kmm
