#include "core/mincut.hpp"

#include <cmath>

#include "core/connectivity.hpp"
#include "util/assert.hpp"

namespace kmm {

MinCutResult approximate_min_cut(Cluster& cluster, const DistributedGraph& dg,
                                 const MinCutConfig& config) {
  const StatsScope scope(cluster);
  MinCutResult result;
  const std::size_t n = dg.num_vertices();
  const std::size_t m = dg.num_edges();

  // Level 0 (p = 1) is plain connectivity of the input.
  {
    BoruvkaConfig conn = config.connectivity;
    conn.seed = split(config.seed, 0);
    const auto base = connected_components(cluster, dg, conn);
    result.graph_connected = base.num_components <= 1;
  }
  if (!result.graph_connected || m == 0) {
    result.estimate = 0;
    result.stats = scope.snapshot();
    return result;
  }

  int max_levels = config.max_levels;
  if (max_levels == 0) {
    max_levels = 2;
    while ((1ULL << max_levels) < m && max_levels < 62) ++max_levels;
    max_levels += 2;
  }

  for (int level = 1; level <= max_levels; ++level) {
    MinCutLevelTrace trace;
    trace.level = level;
    trace.trials = config.trials_per_level;
    // keep(e) iff the shared hash of the edge index falls below 2^(64-level)
    // — an exact Bernoulli(2^-level) coin both endpoints can evaluate.
    const std::uint64_t threshold = 1ULL << (64 - level);
    for (int trial = 0; trial < config.trials_per_level; ++trial) {
      const std::uint64_t trial_seed =
          split3(config.seed, static_cast<std::uint64_t>(level),
                 static_cast<std::uint64_t>(trial));
      const DistributedGraph sampled_dg = dg.derive(
          [&](Vertex u, Vertex v, Weight) {
            return split(trial_seed, edge_index(u, v, n)) < threshold;
          },
          config.connectivity.pool);
      BoruvkaConfig conn = config.connectivity;
      conn.seed = split3(config.seed, 0x515, trial_seed);
      const auto res = connected_components(cluster, sampled_dg, conn);
      if (res.num_components > 1) ++trace.disconnected_trials;
    }
    result.levels.push_back(trace);
    if (2 * trace.disconnected_trials > trace.trials) {
      result.disconnect_level = level;
      break;
    }
  }
  KMM_CHECK_MSG(result.disconnect_level >= 1,
                "sampling sweep never disconnected a connected graph");

  // λ̂ = 2^{i*-1} · ln n: the sampling rate that still preserved
  // connectivity, scaled by the Karger threshold.
  const double ln_n = std::log(static_cast<double>(std::max<std::size_t>(n, 3)));
  result.estimate = static_cast<std::uint64_t>(std::max(
      1.0, std::ldexp(ln_n, result.disconnect_level - 1)));
  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
