#pragma once
// O(log n)-approximate min-cut (Theorem 3, Section 3.2).
//
// Karger-style sampling ([18], applied as in Ghaffari–Kuhn [15]): edges are
// kept with probability p = 2^-i using a *shared* hash of the edge index —
// both endpoints' home machines agree on every coin with zero
// communication. While p·λ ≳ log n the sampled graph stays connected
// w.h.p.; the first level i* whose samples disconnect therefore satisfies
// 2^{i*} ≈ λ / Θ(log n), giving the O(log n)-factor estimate
//     λ̂ = 2^{i*-1} · ln n.
// Each level runs `trials` independent samples and disconnection is decided
// by majority, the whole sweep costing O~(n/k^2) · O(log m) rounds.

#include <vector>

#include "core/boruvka.hpp"

namespace kmm {

struct MinCutConfig {
  std::uint64_t seed = 7;
  int trials_per_level = 3;
  int max_levels = 0;  // 0 => ceil(log2 m) + 2
  /// Settings for every inner connectivity run, used as given except for
  /// the per-run seed. Its runtime knobs (threads, obs, cancel, pool) thus
  /// cover the whole level sweep: one timeline sees the sweep as
  /// consecutive rows on one cluster ledger, and one cancellation budget
  /// bounds it.
  BoruvkaConfig connectivity;
};

struct MinCutLevelTrace {
  int level = 0;                 // sampling probability 2^-level
  int trials = 0;
  int disconnected_trials = 0;
};

struct MinCutResult {
  bool graph_connected = false;
  std::uint64_t estimate = 0;       // λ̂; 0 iff the input is disconnected
  int disconnect_level = -1;        // first majority-disconnected level
  std::vector<MinCutLevelTrace> levels;
  RunStats stats;
};

[[nodiscard]] MinCutResult approximate_min_cut(Cluster& cluster, const DistributedGraph& dg,
                                               const MinCutConfig& config = {});

}  // namespace kmm
