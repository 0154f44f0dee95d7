#pragma once
// Referee baseline (Section 2 warm-up): "the easiest way to solve any
// problem in our model" — ship the whole graph to one machine and solve
// locally. Needs Ω(m/k) rounds because the referee's k-1 incident links
// must carry all Θ(m log n) bits of the edge list.
//
// Execution: the edge shipment is one Runtime superstep (per-machine edge
// enumeration parallelizes with config.threads > 1); the referee's local
// solve + optional label broadcast is a machine-0-only StepMode::kInline
// step. The ledger is bit-identical for every thread count.

#include <vector>

#include "core/common.hpp"

namespace kmm {

struct RefereeConfig : RuntimeConfig {
  /// Ship the labeling back to the home machines (the paper's referee
  /// argument only counts the collection; broadcasting adds ~n/k more).
  bool broadcast_labels = true;
};

struct RefereeResult {
  std::vector<Label> labels;  // smallest vertex id per component
  std::uint64_t num_components = 0;
  RunStats stats;
};

/// Collect every edge at machine 0, solve connectivity locally, optionally
/// broadcast the labeling back to the home machines.
[[nodiscard]] RefereeResult referee_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                                 const RefereeConfig& config = {});

}  // namespace kmm
