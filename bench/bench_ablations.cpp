// E14 (ablations): the design choices the paper argues for, measured.
//
//  A. Random proxies vs a single coordinator — Section 1.2's "trivial
//     strategy" congests one machine: rounds degrade from ~n/k^2 to ~n/k.
//  B. DRR vs footnote 9's coin-flip merge rule — both O(log n) phases;
//     coin-flip needs ~2x the phases (merge probability 1/4 vs 1/2) but
//     its merge trees have depth 1.
//  C. Theorem 2(a) vs 2(b) output criteria — announcing each MST edge to
//     both home machines costs ~n/k extra on high-degree (star) graphs.
//  D. Sketch repetition count — failure rate vs wire size.
//  E. Bandwidth sensitivity — rounds scale ~1/B, shape in k unchanged.

#include <cmath>

#include "bench_common.hpp"

using namespace kmmbench;

int main() {
  banner("E14: design-choice ablations",
         "proxies beat a coordinator (~n/k^2 vs ~n/k); DRR vs coin-flip "
         "merging; output criterion (a) vs (b); sketch copies; bandwidth");

  // --- A: proxies vs coordinator -----------------------------------------
  std::printf("A. random proxies vs single coordinator (gnm n=8192, m=3n):\n");
  std::printf("%4s %14s %14s %8s\n", "k", "proxies", "coordinator", "ratio");
  {
    Rng rng(1);
    const Graph g = gen::gnm(8192, 3 * 8192, rng);
    std::vector<double> kd, prox, coord;
    for (const MachineId k : {MachineId{4}, MachineId{8}, MachineId{16}, MachineId{32}}) {
      Cluster c1(ClusterConfig::for_graph(8192, k));
      Cluster c2(ClusterConfig::for_graph(8192, k));
      const VertexPartition part = VertexPartition::random(8192, k, split(3, k));
      const DistributedGraph d1(g, part), d2(g, part);
      // The randomness relay charges the same in both modes; disable it so
      // the table isolates the routing effect the paper argues about.
      BoruvkaConfig pc;
      pc.seed = split(5, k);
      pc.charge_randomness = false;
      BoruvkaConfig cc = pc;
      cc.single_coordinator = true;
      const auto rp = connected_components(c1, d1, pc).stats.rounds;
      const auto rc = connected_components(c2, d2, cc).stats.rounds;
      std::printf("%4u %14llu %14llu %8.2f\n", k, static_cast<unsigned long long>(rp),
                  static_cast<unsigned long long>(rc),
                  static_cast<double>(rc) / static_cast<double>(rp));
      kd.push_back(k);
      prox.push_back(static_cast<double>(rp));
      coord.push_back(static_cast<double>(rc));
    }
    print_slope("proxies rounds vs k (~ -2)", kd, prox);
    print_slope("coordinator rounds vs k (~ -1)", kd, coord);
  }

  // --- B: merge rules -----------------------------------------------------
  std::printf("\nB. DRR vs coin-flip merging (footnote 9), gnm n=4096 m=3n, k=16:\n");
  std::printf("%-10s %8s %10s %12s %14s\n", "rule", "phases", "rounds", "merge-iters",
              "correct");
  {
    Rng rng(7);
    const Graph g = gen::gnm(4096, 3 * 4096, rng);
    const auto expected = ref::component_count(g);
    for (const MergeRule rule : {MergeRule::kDrr, MergeRule::kCoinFlip}) {
      Accumulator phases, rounds, iters;
      bool correct = true;
      for (int trial = 0; trial < 5; ++trial) {
        Cluster c(ClusterConfig::for_graph(4096, 16));
        const DistributedGraph d(g, VertexPartition::random(4096, 16, split(9, trial)));
        BoruvkaConfig cfg;
        cfg.seed = split(11, trial);
        cfg.merge_rule = rule;
        const auto res = connected_components(c, d, cfg);
        phases.add(static_cast<double>(res.phases.size()));
        rounds.add(static_cast<double>(res.stats.rounds));
        iters.add(res.max_merge_iterations);
        correct &= res.num_components == expected;
      }
      std::printf("%-10s %8.1f %10.0f %12.0f %14s\n",
                  rule == MergeRule::kDrr ? "drr" : "coin-flip", phases.mean(),
                  rounds.mean(), iters.max(), correct ? "yes" : "NO");
    }
  }

  // --- C: output criteria (Theorem 2a vs 2b) ------------------------------
  std::printf("\nC. MST output criterion (a) vs (b) on star-heavy graphs:\n");
  std::printf("%6s %4s %12s %14s %10s\n", "n", "k", "mst(a) rds", "announce(b) rds",
              "(b) slope target ~ -1");
  for (const std::size_t n : {std::size_t{2048}, std::size_t{8192}}) {
    std::vector<double> kd, announce;
    for (const MachineId k : {MachineId{4}, MachineId{8}, MachineId{16}, MachineId{32}}) {
      // A star's MST is all n-1 edges; the center's home machine must learn
      // every one of them under criterion (b).
      const Graph g = weighted_unique(gen::star(n), split(13, n));
      Cluster c(ClusterConfig::for_graph(n, k));
      const DistributedGraph d(g, VertexPartition::random(n, k, split(15, k)));
      BoruvkaConfig cfg;
      cfg.seed = split(17, k);
      const auto mst = minimum_spanning_forest(c, d, cfg);
      const auto strict = announce_mst_to_home_machines(c, d, mst);
      std::printf("%6zu %4u %12llu %14llu\n", n, k,
                  static_cast<unsigned long long>(mst.stats.rounds),
                  static_cast<unsigned long long>(strict.stats.rounds));
      kd.push_back(k);
      announce.push_back(static_cast<double>(strict.stats.rounds));
    }
    std::printf("  n=%zu:", n);
    print_slope("announce rounds vs k (~ -1)", kd, announce);
  }

  // --- D: sketch copies ----------------------------------------------------
  std::printf("\nD. sketch repetitions: failure rate vs size (universe 2^24):\n");
  std::printf("%8s %14s %14s\n", "copies", "fail-rate", "wire-bits");
  for (const int copies : {1, 2, 3, 5}) {
    constexpr std::uint64_t kU = 1ULL << 24;
    const auto params = L0Params::for_universe(kU, copies);
    Rng rng(19);
    int failures = 0;
    constexpr int kTrials = 1500;
    for (int trial = 0; trial < kTrials; ++trial) {
      L0Sampler s(kU, params, split(21, trial));
      const int size = 1 + static_cast<int>(rng.next_below(2000));
      for (int i = 0; i < size; ++i) s.update(rng.next_below(kU), 1);
      if (!s.sample().has_value()) ++failures;
    }
    std::printf("%8d %14.4f %14llu\n", copies,
                static_cast<double>(failures) / kTrials,
                static_cast<unsigned long long>(L0Sampler(kU, params, 1).wire_bits()));
  }

  // --- F: 2-edge-connectivity extension (Section 5 future work) -----------
  std::printf("\nF. 2-edge-connectivity via sparse certificates (extension):\n");
  std::printf("%6s %4s %10s %14s %14s %8s\n", "n", "k", "total", "forests(n/k2)",
              "collect(n/k)", "verdict");
  {
    for (const std::size_t n : {std::size_t{1024}, std::size_t{4096}}) {
      Rng rng(split(31, n));
      const Graph g = gen::connected_gnm(n, 3 * n, rng);
      const bool expected = ref::is_two_edge_connected(g);
      for (const MachineId k : {MachineId{8}, MachineId{32}}) {
        Cluster c(ClusterConfig::for_graph(n, k));
        const DistributedGraph d(g, VertexPartition::random(n, k, split(33, k)));
        BoruvkaConfig cfg;
        cfg.seed = split(35, k);
        const auto res = two_edge_connectivity(c, d, cfg);
        std::printf("%6zu %4u %10llu %14llu %14llu %8s\n", n, k,
                    static_cast<unsigned long long>(res.stats.rounds),
                    static_cast<unsigned long long>(res.forest_stats.rounds),
                    static_cast<unsigned long long>(res.collect_stats.rounds),
                    res.two_edge_connected == expected ? "correct" : "WRONG");
      }
    }
    std::printf("  (the o(n/k) complexity of 2-edge-connectivity is the paper's open "
                "problem;\n   the certificate collection is the ~n/k term here)\n");
  }

  // --- E: bandwidth sensitivity --------------------------------------------
  std::printf("\nE. bandwidth sensitivity (gnm n=2048 m=3n, k=16):\n");
  std::printf("%12s %10s %18s\n", "B (bits)", "rounds", "rounds*B (flat=ok)");
  {
    Rng rng(23);
    const Graph g = gen::gnm(2048, 3 * 2048, rng);
    for (const std::uint64_t b : {1024ULL, 4096ULL, 16384ULL, 65536ULL}) {
      ClusterConfig cc;
      cc.k = 16;
      cc.bandwidth_bits = b;
      Cluster c(cc);
      const DistributedGraph d(g, VertexPartition::random(2048, 16, 25));
      BoruvkaConfig cfg;
      cfg.seed = 27;
      const auto res = connected_components(c, d, cfg);
      std::printf("%12llu %10llu %18.2e\n", static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(res.stats.rounds),
                  static_cast<double>(res.stats.rounds) * static_cast<double>(b));
    }
  }
  return 0;
}
