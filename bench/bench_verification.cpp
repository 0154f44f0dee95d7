// E6 (Theorem 4): all eight verification problems run in O~(n/k^2) rounds.
//
// For each problem: a yes-instance and a no-instance at n=1024, k in
// {8, 16, 32}; prints verdicts and normalized rounds.

#include <functional>

#include "bench_common.hpp"

using namespace kmmbench;

namespace {

struct Problem {
  const char* name;
  bool expected_yes;
  std::function<VerifyResult(Cluster&, const DistributedGraph&)> run;
};

}  // namespace

int main() {
  banner("E6: verification problems (Theorem 4)",
         "SCS, cut, s-t connectivity, edge-on-all-paths, s-t cut, cycle, "
         "e-cycle, bipartiteness — all O~(n/k^2) rounds");

  BenchJson json("verification");
  const std::size_t n = 1024;
  Rng rng(71);
  const Graph connected = gen::connected_gnm(n, 3 * n, rng);
  const Graph pathy = gen::path(n);
  const Graph evenc = gen::cycle(n);
  const Graph oddc = gen::cycle(n + 1);
  const Graph two = gen::multi_component(n, 2 * n, 2, rng);

  std::vector<std::pair<Vertex, Vertex>> tree_edges;
  for (const auto& e : ref::minimum_spanning_forest(connected)) {
    tree_edges.emplace_back(e.u, e.v);
  }
  auto tree_minus_one = tree_edges;
  tree_minus_one.pop_back();

  BoruvkaConfig cfg;
  cfg.seed = 73;
  const std::vector<std::pair<const Graph*, Problem>> problems = {
      {&connected, {"scs yes (spanning tree)", true,
                    [&](Cluster& c, const DistributedGraph& d) {
                      return verify_spanning_connected_subgraph(c, d, tree_edges, cfg);
                    }}},
      {&connected, {"scs no (tree minus edge)", false,
                    [&](Cluster& c, const DistributedGraph& d) {
                      return verify_spanning_connected_subgraph(c, d, tree_minus_one, cfg);
                    }}},
      {&pathy, {"cut yes (middle edge)", true,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_cut(c, d, {{n / 2, n / 2 + 1}}, cfg);
                }}},
      {&evenc, {"cut no (one cycle edge)", false,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_cut(c, d, {{0, 1}}, cfg);
                }}},
      {&connected, {"st-conn yes", true,
                    [&](Cluster& c, const DistributedGraph& d) {
                      return verify_st_connectivity(c, d, 1, n - 2, cfg);
                    }}},
      {&two, {"st-conn no (components)", false,
              [&](Cluster& c, const DistributedGraph& d) {
                return verify_st_connectivity(c, d, 0, n - 1, cfg);
              }}},
      {&pathy, {"edge-on-all-paths yes", true,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_edge_on_all_paths(c, d, 0, n - 1, n / 2, n / 2 + 1, cfg);
                }}},
      {&evenc, {"edge-on-all-paths no", false,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_edge_on_all_paths(c, d, 0, n / 2, 5, 6, cfg);
                }}},
      {&pathy, {"st-cut yes", true,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_st_cut(c, d, 0, n - 1, {{n / 3, n / 3 + 1}}, cfg);
                }}},
      {&evenc, {"st-cut no (half a cut)", false,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_st_cut(c, d, 0, n / 2, {{0, 1}}, cfg);
                }}},
      {&evenc, {"cycle yes (cycle graph)", true,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_cycle_containment(c, d, cfg);
                }}},
      {&pathy, {"cycle no (path graph)", false,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_cycle_containment(c, d, cfg);
                }}},
      {&evenc, {"e-cycle yes", true,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_e_cycle_containment(c, d, 7, 8, cfg);
                }}},
      {&pathy, {"e-cycle no (bridge)", false,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_e_cycle_containment(c, d, 7, 8, cfg);
                }}},
      {&evenc, {"bipartite yes (even cycle)", true,
                [&](Cluster& c, const DistributedGraph& d) {
                  return verify_bipartiteness(c, d, cfg);
                }}},
      {&oddc, {"bipartite no (odd cycle)", false,
               [&](Cluster& c, const DistributedGraph& d) {
                 return verify_bipartiteness(c, d, cfg);
               }}},
  };

  std::printf("%-28s %4s %8s %10s %10s\n", "problem", "k", "verdict", "rounds", "rk2/n");
  bool all_ok = true;
  for (const MachineId k : {MachineId{8}, MachineId{16}, MachineId{32}}) {
    for (const auto& [graph, problem] : problems) {
      Cluster cluster(ClusterConfig::for_graph(graph->num_vertices(), k));
      const DistributedGraph dg(
          *graph, VertexPartition::random(graph->num_vertices(), k, split(79, k)));
      const auto t0 = std::chrono::steady_clock::now();
      const auto res = problem.run(cluster, dg);
      const auto t1 = std::chrono::steady_clock::now();
      const bool ok = res.ok == problem.expected_yes;
      all_ok &= ok;
      std::printf("%-28s %4u %8s %10llu %10.1f%s\n", problem.name, k,
                  res.ok ? "yes" : "no", static_cast<unsigned long long>(res.stats.rounds),
                  static_cast<double>(res.stats.rounds) * k * k /
                      static_cast<double>(graph->num_vertices()),
                  ok ? "" : "   <-- WRONG VERDICT");
      json.record(problem.name, graph->num_vertices(), graph->num_edges(), k, 1, res.stats,
                  0, std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
  }
  std::printf("\nall verdicts correct: %s\n", all_ok ? "yes" : "NO");

  // Runtime thread scaling: every verifier reduces to connectivity runs on
  // the parallel runtime (BoruvkaConfig::threads). Bipartiteness is the
  // heaviest reduction (two full connectivity runs, one on the 2n-vertex
  // double cover), so it is the scaling probe. The ledger must stay
  // thread-invariant; only wall-clock may change.
  std::printf("\nruntime thread scaling, bipartiteness on gnm(8192, 3n), k=16:\n");
  {
    const std::size_t big_n = 8192;
    Rng srng(83);
    const Graph g = gen::connected_gnm(big_n, 3 * big_n, srng);
    if (!run_thread_scaling_stats(
            "bipartite-threads", big_n, g.num_edges(), 16, json, [&](unsigned threads) {
              Cluster cluster(ClusterConfig::for_graph(big_n, 16));
              const DistributedGraph dg(g, VertexPartition::random(big_n, 16, 85));
              BoruvkaConfig vcfg;
              vcfg.seed = 87;
              vcfg.threads = threads;
              return time_stats([&] { return verify_bipartiteness(cluster, dg, vcfg); });
            })) {
      return 1;
    }
  }
  return all_ok ? 0 : 1;
}
