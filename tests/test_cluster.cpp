// The k-machine simulator: delivery, round charging, ledger accounting.

#include <gtest/gtest.h>

#include <cmath>

#include "cluster/cluster.hpp"
#include "cluster/conversion.hpp"
#include "cluster/distributed_graph.hpp"
#include "cluster/proxy.hpp"
#include "graph/generators.hpp"
#include "util/hashing.hpp"
#include "util/stats.hpp"

namespace kmm {
namespace {

ClusterConfig small_config(MachineId k, std::uint64_t bandwidth) {
  ClusterConfig cfg;
  cfg.k = k;
  cfg.bandwidth_bits = bandwidth;
  return cfg;
}

TEST(ClusterTest, DeliversMessages) {
  Cluster c(small_config(3, 1000));
  c.send(0, 1, 7, {11, 22}, 10);
  c.send(2, 1, 8, {33}, 5);
  c.superstep();
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
  std::vector<std::uint64_t> big(3 * kInlinePayloadWords);
  for (std::size_t i = 0; i < big.size(); ++i) big[i] = 0x9E3779B97F4A7C15ull * (i + 1);
  c.send(0, 1, 9, big, 0);
  big.assign(big.size(), 0);  // sender buffer reusable immediately: send copied
  c.superstep();
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
  // cluster: each generation's payloads must read back correctly even as
  // the pending/live arenas swap and recycle their chunks.
  Cluster c(small_config(4, 1 << 20));
  for (std::uint64_t round = 0; round < 50; ++round) {
    for (MachineId src = 0; src < 4; ++src) {
      const MachineId dst = (src + 1) % 4;
      c.send(src, dst, 1, {round, src}, 0);  // inline
      std::vector<std::uint64_t> big(kInlinePayloadWords + 1 + (round % 7),
                                     round * 131 + src);
      c.send(src, dst, 2, big, 0);  // spilled
    }
    c.superstep();
    for (MachineId m = 0; m < 4; ++m) {
      const auto inbox = c.inbox(m);
      ASSERT_EQ(inbox.size(), 2u);
      const MachineId src = (m + 3) % 4;
      EXPECT_EQ(inbox[0].payload()[0], round);
      EXPECT_EQ(inbox[0].payload()[1], src);
      for (const std::uint64_t w : inbox[1].payload()) {
        EXPECT_EQ(w, round * 131 + src);
      }
    }
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
  c.send(0, 1, 1, {}, 1);
  c.superstep();
  EXPECT_EQ(c.inbox(1).size(), 1u);
  c.superstep();
  EXPECT_TRUE(c.inbox(1).empty());
}

TEST(ClusterTest, RoundChargingSingleLink) {
  Cluster c(small_config(2, 100));
  // 3 messages of (64+16) wire bits each on one link = 240 bits -> 3 rounds.
  for (int i = 0; i < 3; ++i) c.send(0, 1, 0, {1});
  EXPECT_EQ(c.superstep(), 3u);
  EXPECT_EQ(c.stats().rounds, 3u);
}

TEST(ClusterTest, RoundsAreMaxOverLinks) {
  Cluster c(small_config(4, 100));
  // Link (0,1) gets 300 bits; every other link 80 -> rounds = 3.
  c.send(0, 1, 0, {}, 284);  // +16 header = 300
  c.send(2, 3, 0, {}, 64);
  c.send(1, 2, 0, {}, 64);
  EXPECT_EQ(c.superstep(), 3u);
}

TEST(ClusterTest, OppositeDirectionsAreIndependent) {
  Cluster c(small_config(2, 100));
  c.send(0, 1, 0, {}, 84);  // 100 bits with header
  c.send(1, 0, 0, {}, 84);
  EXPECT_EQ(c.superstep(), 1u);  // full duplex: one round suffices
}

TEST(ClusterTest, SelfMessagesAreFree) {
  Cluster c(small_config(2, 8));
  c.send(1, 1, 3, {42}, 1 << 20);
  EXPECT_EQ(c.superstep(), 0u);
  EXPECT_EQ(c.inbox(1).size(), 1u);
  EXPECT_EQ(c.stats().local_messages, 1u);
  EXPECT_EQ(c.stats().messages, 0u);
  EXPECT_EQ(c.stats().total_bits, 0u);
}

TEST(ClusterTest, EmptySuperstepFree) {
  Cluster c(small_config(2, 8));
  EXPECT_EQ(c.superstep(), 0u);
  EXPECT_EQ(c.stats().rounds, 0u);
  EXPECT_EQ(c.stats().supersteps, 0u);
}

TEST(ClusterTest, LedgerAccounting) {
  Cluster c(small_config(3, 1000));
  c.send(0, 1, 0, {1, 2, 3});  // 3*64+16 = 208 wire bits
  c.send(1, 2, 0, {}, 34);     // 50 wire bits
  c.superstep();
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
  c.send(0, 1, 0, {}, 84);  // same side, not counted
  c.send(0, 2, 0, {}, 84);  // crossing: 100 wire bits
  c.send(3, 1, 0, {}, 34);  // crossing: 50
  c.send(3, 3, 0, {}, 84);  // self
  c.superstep();
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
  Cluster c(small_config(2, 8));
  EXPECT_DEATH(c.send(0, 5, 0, {}, 1), "");
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
