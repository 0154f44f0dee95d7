// Shard-direct streaming ingest (cluster/stream_ingest.hpp): the built
// shards must be bit-identical to the materialized Graph -> partition path
// for every thread count and ingest chunk size, the unweighted tier must
// elide the weight arrays, and resource exhaustion (budget overflow or a
// scheduled fault-plane allocation failure) must surface as a structured
// Expected error carrying its diagnostic.

#include <gtest/gtest.h>

#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

/// Byte-for-byte equivalence of the two backends as seen through the public
/// adjacency interface: hosted lists, degrees, and neighbor (to, weight)
/// sequences. This is the bit-identity the ledger invariant rides on.
void expect_bit_identical(const DistributedGraph& a, const DistributedGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  ASSERT_EQ(a.machines(), b.machines());
  for (MachineId i = 0; i < a.machines(); ++i) {
    const auto va = a.vertices_of(i);
    const auto vb = b.vertices_of(i);
    ASSERT_EQ(va.size(), vb.size()) << "machine " << i;
    for (std::size_t j = 0; j < va.size(); ++j) ASSERT_EQ(va[j], vb[j]);
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "vertex " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    auto ia = na.begin();
    auto ib = nb.begin();
    for (; ia != na.end(); ++ia, ++ib) {
      const HalfEdge ha = *ia;
      const HalfEdge hb = *ib;
      ASSERT_EQ(ha.to, hb.to) << "vertex " << v;
      ASSERT_EQ(ha.weight, hb.weight) << "vertex " << v << " -> " << ha.to;
    }
  }
}

std::vector<WeightedEdge> path_edges(std::size_t n) {
  std::vector<WeightedEdge> edges;
  for (Vertex v = 0; v + 1 < n; ++v) edges.push_back({v, v + 1, 1});
  return edges;
}

TEST(StreamIngest, PathMatchesMaterializedAcrossChunkSizesAndThreads) {
  const std::size_t n = 1500;
  const auto edges = path_edges(n);
  const Graph g(n, edges);
  const VertexPartition part = VertexPartition::random(n, 8, 77);
  const DistributedGraph reference(g, part);
  // edge_list_stream's chunk size is pure ingest batching: every value must
  // produce the same shards (streaming contract, generators.hpp).
  for (const std::size_t chunk : {std::size_t{256}, std::size_t{1} << 16}) {
    for (const unsigned threads : {1u, 2u, 8u}) {
      StreamIngestOptions opts;
      opts.threads = threads;
      const DistributedGraph dg =
          stream_ingest(n, part, gen::edge_list_stream(edges, chunk), opts).value();
      EXPECT_FALSE(dg.materialized());
      expect_bit_identical(reference, dg);
    }
  }
}

TEST(StreamIngest, GnmMatchesMaterializedAcrossChunkSizesAndThreads) {
  const std::size_t n = 3000, m = 9000;
  // cfg.edges_per_chunk is part of the generated graph's identity, so both
  // sides of the comparison share the cfg; the streamed side must then be
  // invariant in the ingest thread count.
  for (const std::size_t chunk : {std::size_t{256}, std::size_t{1} << 16}) {
    gen::ParGenConfig cfg;
    cfg.seed = 99;
    cfg.edges_per_chunk = chunk;
    const Graph g = gen::gnm_par(n, m, cfg);
    const VertexPartition part = VertexPartition::random(n, 8, 5);
    const DistributedGraph reference(g, part);
    for (const unsigned threads : {1u, 2u, 8u}) {
      StreamIngestOptions opts;
      opts.threads = threads;
      const DistributedGraph dg =
          stream_ingest(n, part, gen::gnm_stream_source(n, m, cfg), opts).value();
      expect_bit_identical(reference, dg);
    }
  }
}

TEST(StreamIngest, RmatMatchesMaterializedAcrossChunkSizesAndThreads) {
  const std::size_t n = 2048, m = 6000;
  // R-MAT streams raw candidates (duplicates included, identical weights per
  // edge index); ingest's sort+dedup must land on exactly the edge set the
  // materialized generator dedups in chunk order.
  for (const std::size_t chunk : {std::size_t{256}, std::size_t{1} << 16}) {
    gen::ParGenConfig cfg;
    cfg.seed = 1234;
    cfg.edges_per_chunk = chunk;
    const Graph g = gen::rmat_par(n, m, cfg);
    const VertexPartition part = VertexPartition::random(n, 8, 11);
    const DistributedGraph reference(g, part);
    for (const unsigned threads : {1u, 2u, 8u}) {
      StreamIngestOptions opts;
      opts.threads = threads;
      const DistributedGraph dg =
          stream_ingest(n, part, gen::rmat_stream_source(n, m, cfg), opts).value();
      expect_bit_identical(reference, dg);
    }
  }
}

TEST(StreamIngest, WeightedGnmCarriesPrfWeights) {
  const std::size_t n = 2000, m = 6000;
  gen::ParGenConfig cfg;
  cfg.seed = 7;
  cfg.weight_limit = 1u << 20;
  const Graph g = gen::gnm_par(n, m, cfg);
  const VertexPartition part = VertexPartition::random(n, 6, 3);
  const DistributedGraph reference(g, part);
  StreamIngestOptions opts;
  opts.threads = 2;
  const DistributedGraph dg =
      stream_ingest(n, part, gen::gnm_stream_source(n, m, cfg), opts).value();
  expect_bit_identical(reference, dg);
}

TEST(StreamIngest, UnweightedShardsElideWeightArrays) {
  const std::size_t n = 4000, m = 12000;
  gen::ParGenConfig cfg;
  cfg.seed = 21;
  const VertexPartition part = VertexPartition::random(n, 8, 9);
  const DistributedGraph dg =
      stream_ingest(n, part, gen::gnm_stream_source(n, m, cfg), StreamIngestOptions{})
          .value();
  // 4 bytes per half-edge: the SoA win that makes the n >= 10^8 tier fit.
  std::size_t total = 0;
  for (MachineId i = 0; i < dg.machines(); ++i) total += dg.shard_bytes(i);
  EXPECT_EQ(total, 2 * dg.num_edges() * sizeof(Vertex));
  EXPECT_LE(dg.max_shard_bytes(), total);
}

TEST(StreamIngest, LedgerAndLabelsMatchMaterializedBackend) {
  // The whole point of the backend abstraction: identical adjacency means
  // identical algorithm traffic, so the ClusterStats ledger is bit-identical
  // whichever backend hosts the graph (and for every ingest thread count).
  const std::size_t n = 2500, m = 7500;
  gen::ParGenConfig cfg;
  cfg.seed = 4321;
  const Graph g = gen::gnm_par(n, m, cfg);
  const VertexPartition part = VertexPartition::random(n, 8, 13);

  Cluster c1(ClusterConfig::for_graph(n, 8));
  const DistributedGraph materialized(g, part);
  BoruvkaConfig bcfg;
  bcfg.seed = 5;
  const auto ref_run = connected_components(c1, materialized, bcfg);

  for (const unsigned threads : {1u, 2u, 8u}) {
    StreamIngestOptions opts;
    opts.threads = threads;
    const DistributedGraph dg =
        stream_ingest(n, part, gen::gnm_stream_source(n, m, cfg), opts).value();
    Cluster c2(ClusterConfig::for_graph(n, 8));
    const auto run = connected_components(c2, dg, bcfg);
    EXPECT_EQ(run.num_components, ref_run.num_components);
    EXPECT_EQ(run.stats.rounds, ref_run.stats.rounds);
    EXPECT_EQ(run.stats.messages, ref_run.stats.messages);
    EXPECT_EQ(run.stats.bits, ref_run.stats.bits);
    EXPECT_EQ(run.labels, ref_run.labels);
  }
}

TEST(StreamIngest, BudgetOverflowReturnsStructuredError) {
  // Resource exhaustion is an Expected error (callers can retry with a bigger
  // budget or more machines), not an abort — only contract violations die.
  const std::size_t n = 1000;
  const auto edges = path_edges(n);
  StreamIngestOptions opts;
  opts.budget.bytes_per_machine = 64;  // a 4-machine path shard needs ~KBs
  const auto r = stream_ingest(n, VertexPartition::random(n, 4, 7),
                               gen::edge_list_stream(edges), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("per-machine memory budget"), std::string::npos)
      << r.error().message;
}

TEST(StreamIngest, ScheduledAllocFailureReturnsStructuredError) {
  // The fault plane's ingest hook: a scheduled allocation failure at one
  // machine surfaces as the same structured error channel as the budget.
  const std::size_t n = 600;
  const auto edges = path_edges(n);
  FaultSchedule sched(7, FaultProfile{});
  sched.add_ingest_alloc_failure(2);
  StreamIngestOptions opts;
  opts.fault = &sched;
  const auto r = stream_ingest(n, VertexPartition::random(n, 4, 7),
                               gen::edge_list_stream(edges), opts);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("simulated allocation failure"), std::string::npos)
      << r.error().message;
  EXPECT_NE(r.error().message.find("machine 2"), std::string::npos) << r.error().message;
}

TEST(StreamIngest, RejectsZeroWeightEdge) {
  // Graph::make's rule on the shard-direct path: a weight-0 edge is a
  // structured error at ingest, not an MST abort later.
  const std::vector<WeightedEdge> small = {{0, 1, 3}, {1, 2, 0}, {2, 3, 5}};
  const auto r =
      stream_ingest(4, VertexPartition::random(4, 2, 7), gen::edge_list_stream(small));
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.error().message.find("edge weights must be positive: edge {1, 2} has weight 0"),
            std::string::npos)
      << r.error().message;

  // Several offenders spread over many chunks, emitted last chunk first by
  // concurrent sinks: every thread count names the smallest one, whichever
  // chunk reached the sink first.
  const std::size_t n = 5000;
  constexpr std::size_t kPer = 128;
  auto edges = path_edges(n);
  for (const std::size_t i : {4321u, 77u, 2900u}) edges[i].w = 0;
  std::swap(edges[77].u, edges[77].v);  // reported by (min, max) endpoint
  for (const unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    const gen::EdgeStream reversed = [&](const gen::EdgeChunkSink& sink) {
      const std::size_t chunks = (edges.size() + kPer - 1) / kPer;
      pool.parallel_for(chunks, [&](std::size_t i) {
        const std::size_t c = chunks - 1 - i;
        const std::size_t hi = std::min((c + 1) * kPer, edges.size());
        sink(c, std::span<const WeightedEdge>(edges.data() + c * kPer, hi - c * kPer));
      });
    };
    const auto rr = stream_ingest(n, VertexPartition::random(n, 4, 7), reversed);
    ASSERT_FALSE(rr.ok()) << "threads=" << threads;
    EXPECT_NE(rr.error().message.find("edge {77, 78} has weight 0"), std::string::npos)
        << rr.error().message;
  }
}

TEST(StreamIngestDeathTest, ShardBackendHasNoGlobalGraph) {
  const std::size_t n = 600;
  const auto edges = path_edges(n);
  const DistributedGraph dg = stream_ingest(n, VertexPartition::random(n, 4, 7),
                                            gen::edge_list_stream(edges), {})
                                  .value();
  EXPECT_FALSE(dg.materialized());
  EXPECT_DEATH((void)dg.graph(), "never materializes the global graph");
}

}  // namespace
}  // namespace kmm
