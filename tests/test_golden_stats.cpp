// Golden ledger regression: the ClusterStats ledger (rounds, supersteps,
// messages, bits, per-link maxima, cut bits) for every ported algorithm on
// path / gnm / rmat inputs, pinned to checked-in seed values.
//
// test_runtime.cpp proves the ledger is thread-invariant *within* one build;
// this suite proves it is invariant *across* representation changes: any
// payload-storage or delivery rework that silently shifts accounting fails
// here loudly. The seed values were captured from the pre-arena
// std::vector-payload representation, so they certify that inline/arena
// payload storage is accounting-neutral.
//
// To regenerate after an *intentional* accounting change, run
//   KMM_PRINT_GOLDEN=1 ./kmm_tests --gtest_filter='GoldenStats.*'
// and paste the printed table over kGolden below.

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

struct GoldenRow {
  const char* name;  // "algo/graph"
  std::uint64_t rounds;
  std::uint64_t supersteps;
  std::uint64_t messages;
  std::uint64_t local_messages;
  std::uint64_t total_bits;
  std::uint64_t max_link_bits;
  std::uint64_t cut_bits;
};

/// One golden case: a name plus a runner that executes the algorithm on a
/// fresh cluster with the given thread count and returns the final ledger.
struct GoldenCase {
  std::string name;
  std::function<ClusterStats(unsigned threads)> run;
};

constexpr MachineId kMachines = 8;

Cluster fresh_cluster(std::size_t n) {
  return Cluster(ClusterConfig::for_graph(std::max<std::size_t>(n, 2), kMachines));
}

/// The same path/gnm/rmat trio test_runtime.cpp uses for its determinism
/// suite — the golden rows pin exactly those runs.
std::vector<std::pair<const char*, Graph>> standard_graphs() {
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("path", gen::path(600));
  Rng rng_gnm(7);
  graphs.emplace_back("gnm", gen::gnm(800, 2400, rng_gnm));
  Rng rng_rmat(11);
  graphs.emplace_back("rmat", gen::rmat(1024, 3000, rng_rmat));
  return graphs;
}

/// Smaller inputs for min-cut (one run is a whole sweep of inner
/// connectivity runs), mirroring test_runtime.cpp.
std::vector<std::pair<const char*, Graph>> mincut_graphs() {
  std::vector<std::pair<const char*, Graph>> graphs;
  graphs.emplace_back("path", gen::path(160));
  Rng rng_gnm(7);
  graphs.emplace_back("gnm", gen::gnm(192, 576, rng_gnm));
  Rng rng_rmat(11);
  graphs.emplace_back("rmat", gen::rmat(256, 700, rng_rmat));
  return graphs;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const auto add = [&](std::string name, std::function<ClusterStats(unsigned)> run) {
    cases.push_back(GoldenCase{std::move(name), std::move(run)});
  };

  for (auto& [gname, graph] : standard_graphs()) {
    const Graph g = graph;  // each lambda owns its input by value

    add(std::string("connectivity/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
      BoruvkaConfig cfg;
      cfg.seed = 1234;
      cfg.threads = threads;
      (void)connected_components(c, dg, cfg);
      return c.stats();
    });

    add(std::string("connectivity_cut/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      std::vector<std::uint8_t> side(kMachines, 0);
      for (MachineId i = kMachines / 2; i < kMachines; ++i) side[i] = 1;
      c.track_cut(side);
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 5));
      BoruvkaConfig cfg;
      cfg.seed = 77;
      cfg.threads = threads;
      (void)connected_components(c, dg, cfg);
      return c.stats();
    });

    add(std::string("mst/") + gname, [g, gname = std::string(gname)](unsigned threads) {
      Rng wrng(split(17, gname == "path" ? 0 : gname == "gnm" ? 1 : 2));
      const Graph wg = with_unique_weights(with_random_weights(g, wrng, 100000));
      Cluster c = fresh_cluster(wg.num_vertices());
      const DistributedGraph dg(wg, VertexPartition::random(wg.num_vertices(), kMachines, 99));
      BoruvkaConfig cfg;
      cfg.seed = 4321;
      cfg.threads = threads;
      (void)minimum_spanning_forest(c, dg, cfg);
      return c.stats();
    });

    add(std::string("resumable_flood/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
      (void)resumable_flood_connectivity(c, dg, ResumableFloodConfig{{.threads = threads}});
      return c.stats();
    });

    add(std::string("referee/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
      (void)referee_connectivity(c, dg, RefereeConfig{{.threads = threads}});
      return c.stats();
    });

    add(std::string("two_edge/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
      BoruvkaConfig cfg;
      cfg.seed = 77;
      cfg.threads = threads;
      (void)two_edge_connectivity(c, dg, cfg);
      return c.stats();
    });

    add(std::string("verify_st+cycle/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
      BoruvkaConfig cfg;
      cfg.seed = 31;
      cfg.threads = threads;
      const Vertex s = 1;
      const Vertex t = static_cast<Vertex>(g.num_vertices() - 2);
      (void)verify_st_connectivity(c, dg, s, t, cfg);
      (void)verify_cycle_containment(c, dg, cfg);
      return c.stats();
    });

    // The six verifiers that run connectivity on a derived subgraph: the
    // requested subgraph, G minus an edge set, and the double cover.
    add(std::string("verify_derived/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
      BoruvkaConfig cfg;
      cfg.seed = 53;
      cfg.threads = threads;
      const Vertex s = 0;
      const Vertex t = static_cast<Vertex>(g.num_vertices() - 1);
      const auto [x, y] = std::pair{g.edges().front().u, g.edges().front().v};
      std::vector<std::pair<Vertex, Vertex>> edges;
      for (std::size_t i = 0; i < 8; ++i) edges.emplace_back(g.edges()[i].u, g.edges()[i].v);
      (void)verify_spanning_connected_subgraph(c, dg, edges, cfg);
      (void)verify_cut(c, dg, edges, cfg);
      (void)verify_edge_on_all_paths(c, dg, s, t, x, y, cfg);
      (void)verify_st_cut(c, dg, s, t, edges, cfg);
      (void)verify_e_cycle_containment(c, dg, x, y, cfg);
      (void)verify_bipartiteness(c, dg, cfg);
      return c.stats();
    });

    add(std::string("rep_mst/") + gname, [g, gname = std::string(gname)](unsigned threads) {
      const std::size_t gi = gname == "path" ? 0 : gname == "gnm" ? 1 : 2;
      Rng wrng(split(19, gi));
      const Graph wg = with_unique_weights(with_random_weights(g, wrng, 100000));
      const auto ep = EdgePartition::random(wg.num_edges(), kMachines, split(21, gi));
      Cluster c = fresh_cluster(wg.num_vertices());
      BoruvkaConfig cfg;
      cfg.seed = 1717;
      cfg.threads = threads;
      (void)rep_model_mst(c, wg, ep, split(23, gi), cfg);
      return c.stats();
    });

    add(std::string("rep_connectivity/") + gname,
        [g, gname = std::string(gname)](unsigned threads) {
          const std::size_t gi = gname == "path" ? 0 : gname == "gnm" ? 1 : 2;
          const auto ep = EdgePartition::random(g.num_edges(), kMachines, split(25, gi));
          Cluster c = fresh_cluster(g.num_vertices());
          BoruvkaConfig cfg;
          cfg.seed = 2929;
          cfg.threads = threads;
          (void)rep_model_connectivity(c, g, ep, split(27, gi), cfg);
          return c.stats();
        });
  }

  for (auto& [gname, graph] : mincut_graphs()) {
    const Graph g = graph;
    add(std::string("mincut/") + gname, [g](unsigned threads) {
      Cluster c = fresh_cluster(g.num_vertices());
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), kMachines, 99));
      MinCutConfig cfg;
      cfg.seed = 4242;
      cfg.connectivity.threads = threads;
      (void)approximate_min_cut(c, dg, cfg);
      return c.stats();
    });
  }

  add("leader_election", [](unsigned threads) {
    Cluster c = fresh_cluster(4);
    (void)elect_leader(c, LeaderElectionConfig{{.threads = threads}, 42});
    return c.stats();
  });

  return cases;
}

// Seed values captured from the pre-change (heap-vector payload)
// representation; the current representation must reproduce them exactly.
// The resumable_flood rows were captured from the per-superstep
// gather/sort/unique boundary exchange that core/flood_exchange replaced.
// clang-format off
constexpr GoldenRow kGolden[] = {
    {"connectivity/path", 8881u, 201u, 11135u, 1585u, 22677935u, 144560u, 0u},
    {"connectivity_cut/path", 8114u, 179u, 10289u, 1365u, 21299690u, 171665u, 12210460u},
    {"mst/path", 18641u, 296u, 22100u, 3136u, 50506116u, 146804u, 0u},
    {"resumable_flood/path", 3489u, 526u, 288288u, 0u, 9818704u, 1025u, 0u},
    {"referee/path", 60u, 2u, 1047u, 76u, 37692u, 2952u, 0u},
    {"two_edge/path", 10068u, 223u, 15130u, 2110u, 27145516u, 153595u, 0u},
    {"verify_st+cycle/path", 17804u, 404u, 21362u, 2824u, 43816383u, 162630u, 0u},
    {"verify_derived/path", 71479u, 1410u, 89339u, 12398u, 183646702u, 310992u, 0u},
    {"rep_mst/path", 17969u, 257u, 23096u, 3222u, 49729034u, 155839u, 0u},
    {"rep_connectivity/path", 8212u, 186u, 11483u, 1600u, 21549752u, 144560u, 0u},
    {"connectivity/gnm", 9662u, 208u, 13365u, 1839u, 25643489u, 209660u, 0u},
    {"connectivity_cut/gnm", 9265u, 199u, 13820u, 1875u, 25522236u, 190600u, 14498967u},
    {"mst/gnm", 49548u, 668u, 53305u, 7579u, 126051054u, 240698u, 0u},
    {"resumable_flood/gnm", 90u, 6u, 10766u, 0u, 381192u, 2285u, 0u},
    {"referee/gnm", 159u, 2u, 2783u, 317u, 100188u, 11736u, 0u},
    {"two_edge/gnm", 10651u, 217u, 14524u, 1933u, 27146736u, 209660u, 0u},
    {"verify_st+cycle/gnm", 21882u, 464u, 29728u, 4026u, 54941159u, 209660u, 0u},
    {"verify_derived/gnm", 75321u, 1281u, 108097u, 14861u, 217674574u, 421560u, 0u},
    {"rep_mst/gnm", 42618u, 539u, 52627u, 7358u, 115820401u, 219190u, 0u},
    {"rep_connectivity/gnm", 9829u, 207u, 18830u, 2598u, 27083336u, 181070u, 0u},
    {"connectivity/rmat", 8647u, 189u, 12342u, 1714u, 21598249u, 239900u, 0u},
    {"connectivity_cut/rmat", 9095u, 218u, 14311u, 2013u, 22710787u, 239900u, 13046309u},
    {"mst/rmat", 35856u, 580u, 42570u, 6155u, 80550875u, 239900u, 0u},
    {"resumable_flood/rmat", 45u, 5u, 4654u, 0u, 162224u, 1817u, 0u},
    {"referee/rmat", 229u, 2u, 3449u, 441u, 124164u, 17640u, 0u},
    {"two_edge/rmat", 8105u, 164u, 12704u, 1747u, 21060667u, 220708u, 0u},
    {"verify_st+cycle/rmat", 17978u, 356u, 26874u, 3662u, 43809173u, 259092u, 0u},
    {"verify_derived/rmat", 69330u, 1369u, 105816u, 14392u, 189490846u, 477495u, 0u},
    {"rep_mst/rmat", 32825u, 521u, 44209u, 6209u, 78664661u, 259092u, 0u},
    {"rep_connectivity/rmat", 8839u, 222u, 17794u, 2446u, 22102144u, 230304u, 0u},
    {"mincut/path", 10998u, 315u, 7916u, 999u, 11142345u, 64017u, 0u},
    {"mincut/gnm", 4743u, 138u, 3285u, 430u, 5171453u, 53088u, 0u},
    {"mincut/rmat", 3845u, 129u, 3344u, 407u, 4305242u, 61104u, 0u},
    {"leader_election", 2u, 1u, 56u, 0u, 4480u, 80u, 0u},
};
// clang-format on

TEST(GoldenStats, LedgerMatchesCheckedInSeedValues) {
  const auto cases = golden_cases();

  if (std::getenv("KMM_PRINT_GOLDEN") != nullptr) {
    for (const auto& gc : cases) {
      const auto s = gc.run(1);
      std::printf("    {\"%s\", %lluu, %lluu, %lluu, %lluu, %lluu, %lluu, %lluu},\n",
                  gc.name.c_str(), static_cast<unsigned long long>(s.rounds),
                  static_cast<unsigned long long>(s.supersteps),
                  static_cast<unsigned long long>(s.messages),
                  static_cast<unsigned long long>(s.local_messages),
                  static_cast<unsigned long long>(s.total_bits),
                  static_cast<unsigned long long>(s.max_link_bits),
                  static_cast<unsigned long long>(s.cut_bits));
    }
    GTEST_SKIP() << "printed " << cases.size() << " golden rows (capture mode)";
  }

  ASSERT_EQ(std::size(kGolden), cases.size())
      << "golden table out of sync with the case list — regenerate with "
         "KMM_PRINT_GOLDEN=1";

  for (std::size_t ci = 0; ci < cases.size(); ++ci) {
    const auto& expect = kGolden[ci];
    ASSERT_STREQ(expect.name, cases[ci].name.c_str()) << "case order drifted";
    for (const unsigned threads : {1u, 2u, 8u}) {
      const auto s = cases[ci].run(threads);
      const auto what = cases[ci].name + " threads=" + std::to_string(threads);
      EXPECT_EQ(s.rounds, expect.rounds) << what;
      EXPECT_EQ(s.supersteps, expect.supersteps) << what;
      EXPECT_EQ(s.messages, expect.messages) << what;
      EXPECT_EQ(s.local_messages, expect.local_messages) << what;
      EXPECT_EQ(s.total_bits, expect.total_bits) << what;
      EXPECT_EQ(s.max_link_bits, expect.max_link_bits) << what;
      EXPECT_EQ(s.cut_bits, expect.cut_bits) << what;
    }
  }
}

}  // namespace
}  // namespace kmm
