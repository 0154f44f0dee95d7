// The k-machine simulator: delivery, round charging, ledger accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/conversion.hpp"
#include "cluster/distributed_graph.hpp"
#include "cluster/proxy.hpp"
#include "cluster/stream_ingest.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "runtime/runtime.hpp"
#include "util/hashing.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace kmm {
namespace {

ClusterConfig small_config(MachineId k, std::uint64_t bandwidth) {
  ClusterConfig cfg;
  cfg.k = k;
  cfg.bandwidth_bits = bandwidth;
  return cfg;
}

struct TestSend {
  MachineId src;
  MachineId dst;
  std::uint32_t tag;
  std::vector<std::uint64_t> payload;
  std::uint64_t bits = 0;
};

/// Sends `sends` through one Runtime step — machine i's handler emits the
/// sends with src == i in list order — and returns the rounds charged.
std::uint64_t deliver(Runtime& rt, const std::vector<TestSend>& sends) {
  return rt.step([&](MachineId self, std::span<const Message>, Outbox& out) {
    for (const auto& s : sends) {
      if (s.src == self) out.send(s.dst, s.tag, s.payload, s.bits);
    }
  });
}

TEST(ClusterTest, DeliversMessages) {
  Cluster c(small_config(3, 1000));
  Runtime rt(c);
  deliver(rt, {{0, 1, 7, {11, 22}, 10}, {2, 1, 8, {33}, 5}});
  const auto inbox = c.inbox(1);
  ASSERT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].src, 0u);
  EXPECT_EQ(inbox[0].tag, 7u);
  EXPECT_EQ(inbox[0].payload()[1], 22u);
  EXPECT_EQ(inbox[1].src, 2u);
  EXPECT_TRUE(c.inbox(0).empty());
}

TEST(ClusterTest, LargePayloadSpillsToArenaIntact) {
  // > kInlinePayloadWords words forces the arena path; contents must be
  // byte-identical on the receive side and survive until the next superstep.
  Cluster c(small_config(2, 1 << 20));
  Runtime rt(c);
  std::vector<std::uint64_t> big(3 * kInlinePayloadWords);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0x9E3779B97F4A7C15ull * (i + 1);
  rt.step([&](MachineId self, std::span<const Message>, Outbox& out) {
    if (self != 0) return;
    out.send(1, 9, big, 0);
    big.assign(big.size(), 0);  // sender buffer reusable immediately: send copied
  });
  const auto inbox = c.inbox(1);
  ASSERT_EQ(inbox.size(), 1u);
  const auto payload = inbox[0].payload();
  ASSERT_EQ(payload.size(), 3 * kInlinePayloadWords);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    EXPECT_EQ(payload[i], 0x9E3779B97F4A7C15ull * (i + 1)) << i;
  }
  EXPECT_EQ(inbox[0].wire_bits(), 64 * payload.size() + kMessageHeaderBits);
}

TEST(ClusterTest, ArenaGenerationsRecycleWithoutCorruption) {
  // Many supersteps of mixed inline/spilled payloads through the same
  // cluster. Each generation is read back by the next step's handlers
  // while they send the next one: payloads must survive as the shard and
  // delivered-payload arenas swap and recycle their chunks.
  Cluster c(small_config(4, 1 << 20));
  Runtime rt(c);
  constexpr std::uint64_t kRounds = 50;
  for (std::uint64_t round = 0; round <= kRounds; ++round) {
    rt.step([&](MachineId m, std::span<const Message> inbox, Outbox& out) {
      if (round > 0) {
        const std::uint64_t prev = round - 1;
        const MachineId src = (m + 3) % 4;
        ASSERT_EQ(inbox.size(), 2u);
        EXPECT_EQ(inbox[0].payload()[0], prev);
        EXPECT_EQ(inbox[0].payload()[1], src);
        for (const std::uint64_t w : inbox[1].payload()) {
          EXPECT_EQ(w, prev * 131 + src);
        }
      }
      if (round == kRounds) return;
      const MachineId dst = (m + 1) % 4;
      out.send(dst, 1, {round, m}, 0);  // inline
      const std::vector<std::uint64_t> big(kInlinePayloadWords + 1 + (round % 7),
                                           round * 131 + m);
      out.send(dst, 2, big, 0);  // spilled
    });
  }
}

TEST(PayloadArenaTest, StablePointersAcrossGrowthAndReuseAfterReset) {
  PayloadArena arena;
  std::vector<std::pair<const std::uint64_t*, std::uint64_t>> allocs;
  // Far more than one chunk's worth, including oversized requests.
  for (std::uint64_t i = 0; i < 2000; ++i) {
    const std::size_t n = 1 + i % 97;
    std::uint64_t* p = arena.alloc(n);
    for (std::size_t w = 0; w < n; ++w) p[w] = i;
    allocs.emplace_back(p, i);
  }
  std::uint64_t* huge = arena.alloc(1 << 14);  // bigger than a chunk
  huge[0] = 42;
  for (const auto& [p, v] : allocs) EXPECT_EQ(*p, v);  // nothing moved
  const std::size_t cap = arena.capacity_words();
  arena.reset();
  // A smaller second generation reuses the first generation's chunks: no
  // growth at all.
  for (int i = 0; i < 1500; ++i) (void)arena.alloc(64);
  EXPECT_EQ(arena.capacity_words(), cap);
}

TEST(ClusterTest, InboxClearedNextSuperstep) {
  Cluster c(small_config(2, 100));
  Runtime rt(c);
  deliver(rt, {{0, 1, 1, {}, 1}});
  EXPECT_EQ(c.inbox(1).size(), 1u);
  deliver(rt, {});
  EXPECT_TRUE(c.inbox(1).empty());
}

TEST(ClusterTest, RoundChargingSingleLink) {
  Cluster c(small_config(2, 100));
  Runtime rt(c);
  // 3 messages of (64+16) wire bits each on one link = 240 bits -> 3 rounds.
  EXPECT_EQ(deliver(rt, {{0, 1, 0, {1}}, {0, 1, 0, {1}}, {0, 1, 0, {1}}}), 3u);
  EXPECT_EQ(c.stats().rounds, 3u);
}

TEST(ClusterTest, RoundsAreMaxOverLinks) {
  Cluster c(small_config(4, 100));
  Runtime rt(c);
  // Link (0,1) gets 300 bits (284 + 16 header); every other link 80 -> rounds = 3.
  EXPECT_EQ(deliver(rt, {{0, 1, 0, {}, 284}, {2, 3, 0, {}, 64}, {1, 2, 0, {}, 64}}), 3u);
}

TEST(ClusterTest, OppositeDirectionsAreIndependent) {
  Cluster c(small_config(2, 100));
  Runtime rt(c);
  // 100 bits with header each way; full duplex: one round suffices.
  EXPECT_EQ(deliver(rt, {{0, 1, 0, {}, 84}, {1, 0, 0, {}, 84}}), 1u);
}

TEST(ClusterTest, SelfMessagesAreFree) {
  Cluster c(small_config(2, 8));
  Runtime rt(c);
  EXPECT_EQ(deliver(rt, {{1, 1, 3, {42}, 1 << 20}}), 0u);
  EXPECT_EQ(c.inbox(1).size(), 1u);
  EXPECT_EQ(c.stats().local_messages, 1u);
  EXPECT_EQ(c.stats().messages, 0u);
  EXPECT_EQ(c.stats().total_bits, 0u);
}

TEST(ClusterTest, EmptySuperstepFree) {
  Cluster c(small_config(2, 8));
  Runtime rt(c);
  EXPECT_EQ(deliver(rt, {}), 0u);
  EXPECT_EQ(c.stats().rounds, 0u);
  EXPECT_EQ(c.stats().supersteps, 0u);
}

TEST(ClusterTest, LedgerAccounting) {
  Cluster c(small_config(3, 1000));
  Runtime rt(c);
  deliver(rt, {{0, 1, 0, {1, 2, 3}},  // 3*64+16 = 208 wire bits
               {1, 2, 0, {}, 34}});   // 50 wire bits
  EXPECT_EQ(c.stats().messages, 2u);
  EXPECT_EQ(c.stats().total_bits, 208 + 50u);
  EXPECT_EQ(c.stats().sent_bits_by_machine[0], 208u);
  EXPECT_EQ(c.stats().received_bits_by_machine[2], 50u);
  EXPECT_EQ(c.stats().max_link_bits, 208u);
}

TEST(ClusterTest, ChargeRoundsAdds) {
  Cluster c(small_config(2, 8));
  c.charge_rounds(17);
  EXPECT_EQ(c.stats().rounds, 17u);
}

TEST(ClusterTest, CutTracking) {
  Cluster c(small_config(4, 1000));
  c.track_cut({0, 0, 1, 1});
  Runtime rt(c);
  deliver(rt, {{0, 1, 0, {}, 84},    // same side, not counted
               {0, 2, 0, {}, 84},    // crossing: 100 wire bits
               {3, 1, 0, {}, 34},    // crossing: 50
               {3, 3, 0, {}, 84}});  // self
  EXPECT_EQ(c.stats().cut_bits, 150u);
}

TEST(ClusterTest, DefaultConfigScalesWithN) {
  const auto small = ClusterConfig::for_graph(64, 4);
  const auto large = ClusterConfig::for_graph(1 << 20, 4);
  EXPECT_LT(small.bandwidth_bits, large.bandwidth_bits);
  EXPECT_GE(small.bandwidth_bits, 64u);
}

TEST(ClusterTest, MakeRejectsBadConfig) {
  ClusterConfig cfg;
  cfg.k = 1;
  const auto too_small = Cluster::make(cfg);
  ASSERT_FALSE(too_small.ok());
  EXPECT_NE(too_small.error().message.find("k >= 2"), std::string::npos);

  cfg.k = 4;
  cfg.bandwidth_bits = 0;
  const auto no_bandwidth = Cluster::make(cfg);
  ASSERT_FALSE(no_bandwidth.ok());
  EXPECT_NE(no_bandwidth.error().message.find("bandwidth"), std::string::npos);

  cfg.bandwidth_bits = 64;
  auto good = Cluster::make(cfg);
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().k(), 4u);
}

TEST(DistributedGraphTest, MakeRejectsPartitionSizeMismatch) {
  const Graph g(4, {{0, 1, 1}, {2, 3, 2}});
  const auto bad = DistributedGraph::make(g, VertexPartition::round_robin(5, 2));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.error().message.find("partition size must match"), std::string::npos);

  auto good = DistributedGraph::make(g, VertexPartition::round_robin(4, 2));
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value().num_vertices(), 4u);
}

TEST(ClusterDeath, RejectsOutOfRangeMachine) {
  OutboxShard shard;
  shard.resize(2);
  Outbox out(shard, 0, 2);
  EXPECT_DEATH(out.send(5, 0, {}, 1), "");
}

TEST(DistributedGraphTest, HostsMatchPartition) {
  Rng rng(1);
  const Graph g = gen::gnm(200, 400, rng);
  const auto part = VertexPartition::random(200, 8, 9);
  const DistributedGraph dg(g, part);
  std::size_t total = 0;
  for (MachineId i = 0; i < 8; ++i) {
    for (const Vertex v : dg.vertices_of(i)) EXPECT_EQ(dg.home(v), i);
    total += dg.vertices_of(i).size();
  }
  EXPECT_EQ(total, 200u);
  EXPECT_GE(dg.max_machine_load(), 200u / 8);
}

TEST(DistributedGraph, HomeCacheMatchesPartition) {
  // home(v) is served from a table the hosted-list build fills once —
  // serially, or chunked over a pool from n = 2^15 — and must agree with
  // the partition's own home() for every vertex, on both backends.
  const auto expect_cache_matches = [](const DistributedGraph& dg, const char* what) {
    for (Vertex v = 0; v < dg.num_vertices(); ++v) {
      ASSERT_EQ(dg.home(v), dg.partition().home(v)) << what << " v=" << v;
    }
  };
  constexpr MachineId k = 8;
  ThreadPool pool(4);
  for (const std::size_t n : {std::size_t{600}, std::size_t{1} << 15}) {
    const std::size_t m = 2 * n;
    gen::ParGenConfig cfg;
    cfg.seed = 3;
    const Graph g = gen::gnm_par(n, m, cfg);
    std::vector<MachineId> table(n);
    for (Vertex v = 0; v < n; ++v) table[v] = static_cast<MachineId>((v * 7 + v / 3) % k);
    const std::pair<const char*, VertexPartition> partitions[] = {
        {"random", VertexPartition::random(n, k, 11)},
        {"round_robin", VertexPartition::round_robin(n, k)},
        {"skewed", VertexPartition::skewed(n, k, 0.4)},
        {"from_table", VertexPartition::from_table(table, k)},
    };
    for (const auto& [name, part] : partitions) {
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        expect_cache_matches(DistributedGraph(g, part, p), name);
        StreamIngestOptions opts;
        opts.pool = p;
        const auto sharded = stream_ingest(n, part, gen::gnm_stream_source(n, m, cfg), opts);
        ASSERT_TRUE(sharded.ok()) << sharded.error().message;
        expect_cache_matches(sharded.value(), name);
      }
    }
  }
}

/// Same vertex count, edge count, homes, hosted lists and adjacency
/// (neighbor ids and weights, in order) — everything an algorithm can read.
void expect_same_distributed_graph(const DistributedGraph& a, const DistributedGraph& b) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.machines(), b.machines());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (MachineId i = 0; i < a.machines(); ++i) {
    EXPECT_TRUE(std::ranges::equal(a.vertices_of(i), b.vertices_of(i))) << "machine " << i;
  }
  for (Vertex v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.home(v), b.home(v)) << "v=" << v;
    ASSERT_EQ(a.degree(v), b.degree(v)) << "v=" << v;
    std::vector<std::pair<Vertex, Weight>> na, nb;
    for (const HalfEdge he : a.neighbors(v)) na.emplace_back(he.to, he.weight);
    for (const HalfEdge he : b.neighbors(v)) nb.emplace_back(he.to, he.weight);
    ASSERT_EQ(na, nb) << "v=" << v;
  }
}

TEST(DistributedGraphDerive, MatchesGlobalRebuildOnBothBackendsAndPools) {
  constexpr std::size_t n = 300;
  constexpr MachineId k = 8;
  Rng rng(5);
  Rng wrng(6);
  const Graph plain = gen::gnm(n, 900, rng);
  const Graph weighted = with_random_weights(plain, wrng, 1000);
  const auto part = VertexPartition::random(n, k, 17);
  for (const Graph* g : {&plain, &weighted}) {
    std::vector<std::pair<Vertex, Vertex>> removed;
    for (std::size_t i = 0; i < g->num_edges(); i += 7) {
      removed.emplace_back(g->edges()[i].v, g->edges()[i].u);  // either orientation
    }
    removed.emplace_back(0, 0);  // not an edge: ignored
    const auto keep = [](Vertex v, Vertex u, Weight) { return split(9, edge_index(v, u, n)) % 3 != 0; };
    std::vector<WeightedEdge> kept;
    for (const auto& e : g->edges()) {
      if (keep(e.u, e.v, e.w)) kept.push_back(e);
    }
    const Graph without = g->without_edges(removed);
    const Graph filtered(n, std::move(kept));
    std::vector<WeightedEdge> lifted;  // the global double-cover construction
    for (const auto& e : g->edges()) {
      lifted.push_back({static_cast<Vertex>(2 * e.u), static_cast<Vertex>(2 * e.v + 1), 1});
      lifted.push_back({static_cast<Vertex>(2 * e.u + 1), static_cast<Vertex>(2 * e.v), 1});
    }
    const Graph cover(2 * n, std::move(lifted));
    std::vector<MachineId> homes(2 * n);
    for (Vertex v = 0; v < n; ++v) homes[2 * v] = homes[2 * v + 1] = part.home(v);
    const DistributedGraph expect_without(without, part);
    const DistributedGraph expect_filtered(filtered, part);
    const DistributedGraph expect_cover(cover, VertexPartition::from_table(homes, k));

    const DistributedGraph materialized(*g, part);
    const DistributedGraph streamed =
        stream_ingest(n, part, gen::edge_list_stream(g->edges(), 128)).value();
    for (const DistributedGraph* src : {&materialized, &streamed}) {
      for (const unsigned threads : {1u, 2u, 8u}) {
        SCOPED_TRACE(std::string(src->materialized() ? "materialized" : "shard-direct") +
                     " threads=" + std::to_string(threads) +
                     (g == &weighted ? " weighted" : " unweighted"));
        ThreadPool pool(threads);
        expect_same_distributed_graph(src->without_edges(removed, &pool), expect_without);
        expect_same_distributed_graph(src->derive(keep, &pool), expect_filtered);
        expect_same_distributed_graph(src->double_cover(&pool), expect_cover);
      }
      for (Vertex x = 0; x < n; x += 3) {
        for (Vertex y = 0; y < n; ++y) ASSERT_EQ(src->has_edge(x, y), g->has_edge(x, y));
      }
      for (const auto& e : g->edges()) {
        EXPECT_TRUE(src->has_edge(e.u, e.v));
        EXPECT_TRUE(src->has_edge(e.v, e.u));
      }
      EXPECT_FALSE(src->has_edge(0, static_cast<Vertex>(n)));
      EXPECT_FALSE(src->has_edge(static_cast<Vertex>(n), 0));
    }
  }
}

TEST(DistributedGraphDerive, WeightPredicateKeepsWeights) {
  const Graph g(4, {{0, 1, 5}, {1, 2, 10}, {2, 3, 15}});
  const DistributedGraph dg(g, VertexPartition::round_robin(4, 2));
  const DistributedGraph light = dg.derive([](Vertex, Vertex, Weight w) { return w <= 10; });
  EXPECT_FALSE(light.materialized());
  EXPECT_EQ(light.num_edges(), 2u);
  EXPECT_FALSE(light.has_edge(2, 3));
  EXPECT_TRUE(light.has_edge(2, 1));
  std::vector<Weight> weights;
  for (const HalfEdge he : light.neighbors(1)) weights.push_back(he.weight);
  EXPECT_EQ(weights, (std::vector<Weight>{5, 10}));

  // Unit weights are not stored (4 B per half-edge), and a non-unit weight
  // after unit ones keeps the earlier units.
  const Graph mixed(4, {{0, 1, 1}, {0, 2, 7}, {0, 3, 1}});
  const DistributedGraph mdg(mixed, VertexPartition::round_robin(4, 2));
  const auto all = [](Vertex, Vertex, Weight) { return true; };
  const DistributedGraph mixed_all = mdg.derive(all);
  weights.clear();
  for (const HalfEdge he : mixed_all.neighbors(0)) weights.push_back(he.weight);
  EXPECT_EQ(weights, (std::vector<Weight>{1, 7, 1}));
  const DistributedGraph unit = dg.derive([](Vertex v, Vertex u, Weight) { return v + u != 5; })
                                    .double_cover();
  EXPECT_EQ(unit.num_edges(), 4u);
  for (MachineId i = 0; i < 2; ++i) {
    std::size_t half_edges = 0;
    for (const Vertex v : unit.vertices_of(i)) half_edges += unit.degree(v);
    EXPECT_EQ(unit.shard_bytes(i), half_edges * sizeof(Vertex));
  }
}

TEST(ProxyMapTest, DeterministicAndSpread) {
  const ProxyMap p(123, 16);
  const ProxyMap q(123, 16);
  std::vector<int> counts(16, 0);
  for (std::uint64_t l = 0; l < 1600; ++l) {
    EXPECT_EQ(p.proxy_of(l), q.proxy_of(l));
    ++counts[p.proxy_of(l)];
  }
  for (const int cnt : counts) EXPECT_NEAR(cnt, 100, 40);
}

TEST(ProxyMapTest, FixedRoutesEverythingToCoordinator) {
  const auto p = ProxyMap::fixed(3, 8);
  EXPECT_TRUE(p.is_fixed());
  for (std::uint64_t l = 0; l < 100; ++l) EXPECT_EQ(p.proxy_of(l), 3u);
}

TEST(ProxyMapTest, PrfMatchesDWiseLoadBalance) {
  // PRF-for-d-wise substitution check (util/hashing.hpp): the PRF-backed
  // proxy map should balance loads statistically like an honest d-wise
  // independent polynomial hash.
  constexpr std::uint64_t kLabels = 4000;
  constexpr MachineId kMachines = 16;
  Rng rng(77);
  const PolynomialHash poly(8, rng);
  const ProxyMap prf(rng.next(), kMachines);
  std::vector<int> load_poly(kMachines, 0), load_prf(kMachines, 0);
  for (std::uint64_t l = 0; l < kLabels; ++l) {
    ++load_poly[poly.bucket(l, kMachines)];
    ++load_prf[prf.proxy_of(l)];
  }
  Accumulator a, b;
  for (MachineId i = 0; i < kMachines; ++i) {
    a.add(load_poly[i]);
    b.add(load_prf[i]);
  }
  // Same mean by construction; standard deviations in the same ballpark
  // (both ~ sqrt(mean) for balanced hashing).
  EXPECT_DOUBLE_EQ(a.mean(), b.mean());
  const double binomial_sd = std::sqrt(a.mean());
  EXPECT_LT(a.stddev(), 3 * binomial_sd);
  EXPECT_LT(b.stddev(), 3 * binomial_sd);
}

TEST(ConversionTheorem, BoundShape) {
  CongestedCliqueProfile profile;
  profile.message_complexity = 1'000'000;
  profile.round_complexity = 10;
  profile.max_node_degree_msgs = 100;
  // M/k^2 dominates at small k; Δ'T/k dominates... both shrink with k.
  EXPECT_GT(conversion_rounds(profile, 2), conversion_rounds(profile, 8));
  EXPECT_EQ(conversion_rounds(profile, 10), 1'000'000 / 100 + 100 * 10 / 10u);
  EXPECT_EQ(conversion_rounds(profile, 10, 3), 3 * (10000 + 100u));
}

TEST(ConversionTheorem, FloodingProfile) {
  const auto p = flooding_profile(1000, 5000, 12, 40);
  EXPECT_EQ(p.round_complexity, 13u);
  EXPECT_EQ(p.message_complexity, 2 * 5000 * 13u);
  EXPECT_EQ(p.max_node_degree_msgs, 40u);
}

}  // namespace
}  // namespace kmm
