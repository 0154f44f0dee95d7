// LabelRegistry + SketchPool integrity: slot recycling across occupants,
// sorted touched-list iteration, capacity retention, pool reuse, builder
// rebinding — and determinism of the registry-backed Borůvka engine across
// thread counts {1, 2, 8}.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

TEST(LabelRegistry, InsertFindErase) {
  LabelRegistry<int> reg;
  reg.reset_universe(100);
  EXPECT_TRUE(reg.empty());
  EXPECT_EQ(reg.find(7), nullptr);

  bool created = false;
  reg.get_or_create(7, created) = 70;
  EXPECT_TRUE(created);
  reg.get_or_create(7, created) = 71;
  EXPECT_FALSE(created);
  ASSERT_NE(reg.find(7), nullptr);
  EXPECT_EQ(*reg.find(7), 71);
  EXPECT_EQ(reg.at(7), 71);
  EXPECT_TRUE(reg.contains(7));
  EXPECT_EQ(reg.size(), 1u);

  reg.erase(7);
  EXPECT_FALSE(reg.contains(7));
  EXPECT_EQ(reg.find(7), nullptr);
  EXPECT_TRUE(reg.empty());
}

TEST(LabelRegistry, SortedIterationIsAscending) {
  LabelRegistry<int> reg;
  reg.reset_universe(64);
  bool created = false;
  for (const Label label : {41ull, 3ull, 17ull, 0ull, 63ull, 9ull}) {
    reg.get_or_create(label, created) = static_cast<int>(label) * 2;
  }
  std::vector<Label> seen;
  reg.for_each_sorted([&](Label label, int value) {
    seen.push_back(label);
    EXPECT_EQ(value, static_cast<int>(label) * 2);
  });
  EXPECT_EQ(seen, (std::vector<Label>{0, 3, 9, 17, 41, 63}));

  // Erase in the middle, insert a new label: still sorted, still exact.
  reg.erase(17);
  reg.get_or_create(5, created) = 10;
  seen.clear();
  reg.for_each_sorted([&](Label label, int) { seen.push_back(label); });
  EXPECT_EQ(seen, (std::vector<Label>{0, 3, 5, 9, 41, 63}));
}

TEST(LabelRegistry, SlotRecyclingRetainsPayloadCapacity) {
  LabelRegistry<std::vector<int>> reg;
  reg.reset_universe(32);
  bool created = false;
  auto& v = reg.get_or_create(4, created);
  v.assign(100, 1);
  const auto cap = v.capacity();
  const int* data = v.data();
  reg.erase(4);

  // A different label must land in the recycled slot and see the old
  // payload's storage (stale contents, caller-reset contract).
  auto& w = reg.get_or_create(9, created);
  EXPECT_TRUE(created);
  EXPECT_EQ(w.data(), data);
  EXPECT_GE(w.capacity(), cap);
  w.clear();  // capacity-retaining reset, as the engine does
  EXPECT_GE(w.capacity(), cap);
}

TEST(LabelRegistry, ClearRecyclesAllSlotsInPlace) {
  LabelRegistry<std::vector<int>> reg;
  reg.reset_universe(16);
  bool created = false;
  std::vector<const void*> addresses;
  for (Label label = 0; label < 8; ++label) {
    auto& v = reg.get_or_create(label, created);
    v.assign(16, static_cast<int>(label));
    addresses.push_back(v.data());
  }
  reg.clear();
  EXPECT_TRUE(reg.empty());
  // Refill with different labels: every payload reuses recycled storage.
  std::vector<const void*> recycled;
  for (Label label = 8; label < 16; ++label) {
    auto& v = reg.get_or_create(label, created);
    EXPECT_TRUE(created);
    recycled.push_back(v.data());
  }
  std::sort(addresses.begin(), addresses.end());
  std::sort(recycled.begin(), recycled.end());
  EXPECT_EQ(addresses, recycled);
}

TEST(LabelRegistry, EraseBySwapKeepsRemainderConsistent) {
  LabelRegistry<int> reg;
  reg.reset_universe(1000);
  bool created = false;
  for (Label label = 0; label < 100; ++label) reg.get_or_create(label, created) = 1;
  // Erase every third label, including the touched-list tail.
  for (Label label = 0; label < 100; label += 3) reg.erase(label);
  std::size_t count = 0;
  Label prev = 0;
  reg.for_each_sorted([&](Label label, int) {
    if (count > 0) {
      EXPECT_GT(label, prev);
    }
    EXPECT_NE(label % 3, 0u);
    prev = label;
    ++count;
  });
  EXPECT_EQ(count, reg.size());
  EXPECT_EQ(count, 66u);
}

TEST(LabelRegistry, ResetUniverseEmptiesAndResizes) {
  LabelRegistry<int> reg;
  reg.reset_universe(8);
  bool created = false;
  reg.get_or_create(3, created) = 33;
  reg.reset_universe(16);
  EXPECT_TRUE(reg.empty());
  EXPECT_FALSE(reg.contains(3));
  reg.get_or_create(15, created) = 1;
  EXPECT_TRUE(created);
  EXPECT_EQ(reg.size(), 1u);
}

TEST(SketchPool, RecyclesStorageAndZeroes) {
  const std::uint64_t universe = 1 << 16;
  const auto params = L0Params::for_universe(universe);
  SketchPool pool;

  L0Sampler& first = pool.acquire(universe, params, 11);
  first.update(42, 1);
  EXPECT_FALSE(first.is_zero());
  const L0Sampler* address = &first;
  EXPECT_EQ(pool.in_use(), 1u);

  pool.release_all();
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.capacity(), 1u);

  // Same shape, new seed: same object recycled, zeroed, rebound.
  L0Sampler& second = pool.acquire(universe, params, 13);
  EXPECT_EQ(&second, address);
  EXPECT_TRUE(second.is_zero());
  EXPECT_EQ(second.seed(), 13u);
}

TEST(SketchPool, StablePointersAcrossGrowth) {
  const std::uint64_t universe = 1 << 12;
  const auto params = L0Params::for_universe(universe);
  SketchPool pool;
  const std::uint32_t a = pool.acquire_index(universe, params, 1);
  L0Sampler* pa = &pool.at(a);
  for (int i = 0; i < 50; ++i) (void)pool.acquire_index(universe, params, 2);
  EXPECT_EQ(&pool.at(a), pa);  // growth must not move live accumulators
  EXPECT_EQ(pool.in_use(), 51u);
}

TEST(SketchPool, PooledAccumulatorMatchesFreshSketch) {
  // acquire -> accumulate must equal a from-scratch sketch, across recycling.
  const std::size_t n = 64;
  Rng rng(3);
  const Graph g = gen::gnm(n, 3 * n, rng);
  const DistributedGraph dg(g, VertexPartition::random(n, 4, 5));
  const GraphSketchBuilder builder(n, 7);
  std::vector<Vertex> part(n / 2);
  std::iota(part.begin(), part.end(), 0);

  SketchPool pool;
  for (int round = 0; round < 3; ++round) {
    pool.release_all();
    L0Sampler& pooled = pool.acquire(builder.universe(), builder.params(), builder.seed());
    builder.accumulate_part(dg, part, kNoWeightLimit, pooled);
    const L0Sampler fresh = builder.sketch_part(dg, part);
    WordWriter wp, wf;
    pooled.serialize(wp);
    fresh.serialize(wf);
    EXPECT_EQ(std::move(wp).take(), std::move(wf).take());
  }
}

TEST(GraphSketchBuilder, RebindMatchesFreshBuilder) {
  const std::size_t n = 96;
  Rng rng(9);
  const Graph g = gen::gnm(n, 4 * n, rng);
  const DistributedGraph dg(g, VertexPartition::random(n, 4, 11));
  std::vector<Vertex> part;
  for (Vertex v = 0; v < n; v += 3) part.push_back(v);

  GraphSketchBuilder reused(n, /*seed=*/100);
  for (const std::uint64_t seed : {101ull, 102ull, 5555ull}) {
    reused.rebind(seed);
    const GraphSketchBuilder fresh(n, seed);
    EXPECT_EQ(reused.seed(), fresh.seed());
    WordWriter wr, wf;
    reused.sketch_part(dg, part).serialize(wr);
    fresh.sketch_part(dg, part).serialize(wf);
    EXPECT_EQ(std::move(wr).take(), std::move(wf).take());
  }
}

// -- engine determinism on the registry representation ----------------------
//
// The registries' touched-list iteration must reproduce the ordered-map
// wire order for every thread count: labels, edges, and the full ledger
// must be identical across threads {1, 2, 8}.

struct EngineRun {
  std::vector<Label> labels;
  std::uint64_t components = 0;
  std::vector<std::pair<Vertex, Vertex>> forest;
  std::vector<WeightedEdge> mst;
  RunStats stats;
};

EngineRun run_engine(const Graph& g, bool mst, unsigned threads) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), 8));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), 8, 21));
  BoruvkaConfig cfg;
  cfg.seed = 23;
  cfg.threads = threads;
  const BoruvkaResult res = mst ? minimum_spanning_forest(cluster, dg, cfg)
                                : connected_components(cluster, dg, cfg);
  return EngineRun{res.labels, res.num_components, res.forest_edges(), res.mst_edges(),
                   res.stats};
}

TEST(RegistryEngine, ThreadCountInvariance) {
  Rng rng(7);
  const Graph gnm = gen::gnm(400, 1200, rng);
  const Graph weighted = with_unique_weights(with_random_weights(gen::path(300), rng, 1000));
  for (const bool mst : {false, true}) {
    const Graph& g = mst ? weighted : gnm;
    const EngineRun base = run_engine(g, mst, 1);
    for (const unsigned threads : {2u, 8u}) {
      const EngineRun run = run_engine(g, mst, threads);
      EXPECT_EQ(run.labels, base.labels) << "mst=" << mst << " threads=" << threads;
      EXPECT_EQ(run.components, base.components);
      EXPECT_EQ(run.forest, base.forest);
      EXPECT_EQ(run.mst.size(), base.mst.size());
      EXPECT_EQ(run.stats.rounds, base.stats.rounds);
      EXPECT_EQ(run.stats.messages, base.stats.messages);
      EXPECT_EQ(run.stats.bits, base.stats.bits);
      EXPECT_EQ(run.stats.supersteps, base.stats.supersteps);
    }
  }
}

}  // namespace
}  // namespace kmm
