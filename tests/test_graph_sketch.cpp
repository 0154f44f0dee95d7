// Graph sketches over incidence vectors: the Section 2.3 cancellation
// property, outgoing-edge sampling, weight-threshold restriction.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "sketch/graph_sketch.hpp"
#include "sketch/sketch_pool.hpp"
#include "util/codec.hpp"

namespace kmm {
namespace {

DistributedGraph distribute(const Graph& g, MachineId k = 4, std::uint64_t seed = 1) {
  return DistributedGraph(g, VertexPartition::random(g.num_vertices(), k, seed));
}

TEST(GraphSketch, DecodeRoundtrip) {
  Rng rng(1);
  const Graph g = gen::gnm(50, 100, rng);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 99);
  for (const auto& e : g.edges()) {
    const auto idx = edge_index(e.u, e.v, g.num_vertices());
    const auto [x, y] = b.decode(idx);
    EXPECT_EQ(x, e.u);
    EXPECT_EQ(y, e.v);
  }
}

TEST(GraphSketch, VertexSketchSamplesIncidentEdge) {
  Rng rng(2);
  const Graph g = gen::gnm(60, 150, rng);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 7);
  for (Vertex v = 0; v < 20; ++v) {
    const auto sketch = b.sketch_vertex(dg, v);
    if (g.degree(v) == 0) {
      EXPECT_TRUE(sketch.is_zero());
      continue;
    }
    const auto rec = sketch.sample();
    ASSERT_TRUE(rec.has_value());
    const auto [x, y] = b.decode(rec->index);
    EXPECT_TRUE(x == v || y == v);  // incident to v
    EXPECT_TRUE(g.has_edge(x, y));
    // Sign convention: +1 iff v is the lower endpoint.
    EXPECT_EQ(rec->value, v == x ? 1 : -1);
  }
}

TEST(GraphSketch, WholeComponentCancelsToZero) {
  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = gen::connected_gnm(80, 160, rng);
    const DistributedGraph dg = distribute(g, 4, split(11, trial));
    const GraphSketchBuilder b(g.num_vertices(), split(13, trial));
    std::vector<Vertex> all(g.num_vertices());
    for (Vertex v = 0; v < g.num_vertices(); ++v) all[v] = v;
    const auto sketch = b.sketch_part(dg, all);
    EXPECT_TRUE(sketch.is_zero());  // no outgoing edges from V
  }
}

TEST(GraphSketch, PartSketchSamplesOutgoingEdge) {
  // THE invariant the connectivity algorithm rides: summing a vertex set's
  // sketches cancels internal edges, leaving only boundary edges.
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = gen::connected_gnm(100, 250, rng);
    const DistributedGraph dg = distribute(g, 4, split(17, trial));
    const GraphSketchBuilder b(g.num_vertices(), split(19, trial));
    // Part = vertices 0..49 (random graph => boundary is nonempty).
    std::vector<Vertex> part;
    for (Vertex v = 0; v < 50; ++v) part.push_back(v);
    const auto sketch = b.sketch_part(dg, part);
    const auto rec = sketch.sample();
    ASSERT_TRUE(rec.has_value());
    const auto [x, y] = b.decode(rec->index);
    EXPECT_TRUE(g.has_edge(x, y));
    const bool x_in = x < 50, y_in = y < 50;
    EXPECT_NE(x_in, y_in) << "sampled edge must cross the part boundary";
    // Sign identifies the inside endpoint: +1 => lower endpoint inside.
    EXPECT_EQ(rec->value > 0, x_in);
  }
}

TEST(GraphSketch, PartEqualsSumOfVertexSketches) {
  Rng rng(5);
  const Graph g = gen::gnm(40, 90, rng);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 23);
  std::vector<Vertex> part{3, 7, 11, 19, 23};
  auto summed = b.empty_sketch();
  for (const Vertex v : part) summed.add(b.sketch_vertex(dg, v));
  const auto direct = b.sketch_part(dg, part);
  WordWriter w1, w2;
  summed.serialize(w1);
  direct.serialize(w2);
  EXPECT_EQ(std::move(w1).take(), std::move(w2).take());
}

TEST(GraphSketch, WeightThresholdRestricts) {
  Rng rng(6);
  Graph g = with_random_weights(gen::connected_gnm(60, 200, rng), rng, 1000);
  g = with_unique_weights(g);
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 29);
  // Median weight as threshold; all sampled edges must respect it.
  std::vector<Weight> ws;
  for (const auto& e : g.edges()) ws.push_back(e.w);
  std::nth_element(ws.begin(), ws.begin() + ws.size() / 2, ws.end());
  const Weight thr = ws[ws.size() / 2];
  for (Vertex v = 0; v < 30; ++v) {
    const auto sketch = b.sketch_vertex(dg, v, thr);
    if (const auto rec = sketch.sample()) {
      const auto [x, y] = b.decode(rec->index);
      Weight w = 0;
      for (const auto& he : g.neighbors(x)) {
        if (he.to == y) w = he.weight;
      }
      EXPECT_LE(w, thr);
    }
  }
}

TEST(GraphSketch, ThresholdBelowMinGivesZero) {
  Rng rng(7);
  Graph g = with_random_weights(gen::cycle(20), rng, 100);
  for (auto& e : const_cast<std::vector<WeightedEdge>&>(g.edges())) (void)e;
  const DistributedGraph dg = distribute(g);
  const GraphSketchBuilder b(g.num_vertices(), 31);
  const auto sketch = b.sketch_vertex(dg, 5, 0);  // nothing has weight 0
  EXPECT_TRUE(sketch.is_zero());
}

TEST(GraphSketch, DifferentSeedsDifferentSamples) {
  Rng rng(8);
  const Graph g = gen::complete(40);
  const DistributedGraph dg = distribute(g);
  std::set<std::uint64_t> sampled;
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const GraphSketchBuilder b(g.num_vertices(), split(37, seed));
    if (const auto rec = b.sketch_vertex(dg, 0).sample()) sampled.insert(rec->index);
  }
  // Vertex 0 of K_40 has 39 incident edges; fresh seeds must explore many.
  EXPECT_GE(sampled.size(), 10u);
}

TEST(GraphSketch, SketchSizeIsPolylog) {
  const GraphSketchBuilder small(1 << 6, 1);
  const GraphSketchBuilder large(1 << 12, 1);
  const auto sb = small.empty_sketch().wire_bits();
  const auto lb = large.empty_sketch().wire_bits();
  // Universe grew by 2^12 yet the sketch grew by ~2x (levels double).
  EXPECT_LT(lb, 3 * sb);
}

TEST(GraphSketch, KernelMatchesPerUpdateReference) {
  // accumulate_part adds each edge into its top cell only and closes with a
  // suffix-sum pass; its cells must equal the level walk of
  // L0Sampler::update with square-and-multiply powers, bit for bit. n =
  // 70000 gives U > 2^32 and a fourth table digit.
  for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{1000},
                              std::size_t{1} << 13, std::size_t{70000}}) {
    gen::ParGenConfig cfg;
    cfg.seed = split(51, n);
    cfg.weight_limit = 1000;
    const std::size_t m = std::min(2 * n, n * (n - 1) / 2);
    const Graph g = gen::gnm_par(n, m, cfg);
    const DistributedGraph dg = distribute(g);
    std::vector<Weight> weights;
    for (const auto& e : g.edges()) weights.push_back(e.w);
    std::nth_element(weights.begin(), weights.begin() + weights.size() / 2, weights.end());
    const Weight median = weights[weights.size() / 2];

    for (const int copies : {1, 3, 8}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " copies=" + std::to_string(copies));
      const std::uint64_t seed = split(53, n * 16 + static_cast<std::uint64_t>(copies));
      const GraphSketchBuilder b(n, seed, copies);
      const PowerTable& table = b.powers();
      const std::uint64_t u = b.universe();

      // Table lookups against fp::pow at the digit edges and at random i.
      Rng rng(split(seed, 1));
      std::vector<std::uint64_t> probes = {0, 1, u - 1};
      const std::uint64_t width = std::uint64_t{1} << table.window_bits();
      if (width - 1 < u) probes.push_back(width - 1);
      if (width < u) probes.push_back(width);
      for (int i = 0; i < 64; ++i) probes.push_back(rng.next_below(u));
      for (const std::uint64_t i : probes) {
        for (int c = 0; c < copies; ++c) {
          ASSERT_EQ(table.power(i, c), fp::pow(L0Sampler::fingerprint_base_for(seed, c), i))
              << "i=" << i << " c=" << c;
        }
      }

      // Random parts (one recycled pooled sink, as the engine uses it) at
      // thresholds none / median weight / 0.
      SketchPool pool;
      for (int trial = 0; trial < 4; ++trial) {
        std::vector<Vertex> part;
        const std::size_t size = 1 + rng.next_below(std::min<std::size_t>(n, 300));
        for (std::size_t j = 0; j < size; ++j) {
          const auto v = static_cast<Vertex>(rng.next_below(n));
          if (std::find(part.begin(), part.end(), v) == part.end()) part.push_back(v);
        }
        for (const Weight thr : {kNoWeightLimit, median, Weight{0}}) {
          pool.release_all();
          L0Sampler& kernel = pool.acquire(u, b.params(), seed);
          b.accumulate_part(dg, part, thr, kernel);

          L0Sampler reference = b.empty_sketch();
          for (const Vertex v : part) {
            for (const auto& he : dg.neighbors(v)) {
              if (he.weight > thr) continue;
              reference.update(edge_index(v, he.to, n), v < he.to ? 1 : -1);
            }
          }
          WordWriter wk, wr;
          kernel.serialize(wk);
          reference.serialize(wr);
          ASSERT_EQ(std::move(wk).take(), std::move(wr).take()) << "thr=" << thr;

          const auto by_table = kernel.sample(table);
          const auto by_pow = reference.sample();
          ASSERT_EQ(by_table.has_value(), by_pow.has_value());
          if (by_table) {
            EXPECT_EQ(by_table->index, by_pow->index);
            EXPECT_EQ(by_table->value, by_pow->value);
          }
        }
      }
    }
  }
  // n = 2: one edge, so a one-vertex part is exactly 1-sparse and must
  // recover through the table.
  const Graph edge(2, {{0, 1, 1}});
  const GraphSketchBuilder b(2, 9);
  const auto rec = b.sketch_vertex(distribute(edge, 2), 0).sample(b.powers());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->index, edge_index(0, 1, 2));
  EXPECT_EQ(rec->value, 1);
}

TEST(GraphSketch, PowerTableSizeIsIndependentOfN) {
  // D digits of w <= 9 bits: 36 KB at n = 2^13 with 3 copies, and never
  // more than the 2 n copies words of per-vertex tables from n = 1024 on.
  const GraphSketchBuilder at_8k(std::size_t{1} << 13, 1);
  EXPECT_EQ(at_8k.powers().digits(), 3);
  EXPECT_EQ(at_8k.powers().window_bits(), 9);
  EXPECT_EQ(at_8k.powers().words() * sizeof(std::uint64_t), 36u * 1024);
  const GraphSketchBuilder at_1k(1024, 1);
  EXPECT_LE(at_1k.powers().words(), 2 * 1024 * 3u);
  const GraphSketchBuilder at_70k(70000, 1);
  EXPECT_EQ(at_70k.powers().digits(), 4);
  EXPECT_LE(at_70k.powers().words(), at_8k.powers().words() * 4 / 3);
}

}  // namespace
}  // namespace kmm
