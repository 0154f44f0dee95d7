#pragma once
// MST in the k-machine model (Theorem 2(a)): O~(n/k^2) rounds under the
// relaxed output criterion that every MST edge is output by at least one
// machine (the proxy that confirmed it as a minimum-weight outgoing edge).
//
// The algorithm mirrors the connectivity driver but repeats the Section 3.1
// sketch-restriction loop per component until the restricted sketch is
// *verifiably empty*, so the reported edge is the exact MWOE (not merely
// w.h.p. — the is_zero test turns the sampling loop into a Las Vegas
// confirmation: a nonzero restricted sketch passes is_zero only with
// probability <= (U/p)^copies, see L0Sampler::is_zero).

#include "core/boruvka.hpp"

namespace kmm {

/// Runs the Section 3.1 MST algorithm. With pairwise distinct edge weights
/// the union of per-machine outputs is exactly the minimum spanning forest;
/// with ties the output is a minimum-weight spanning subgraph that may
/// contain per-phase duplicate-weight extras, so callers wanting exactness
/// should pre-process with with_unique_weights(). `require_unique_weights`
/// makes that contract explicit (checked).
[[nodiscard]] BoruvkaResult minimum_spanning_forest(Cluster& cluster,
                                                    const DistributedGraph& dg,
                                                    const BoruvkaConfig& config = {},
                                                    bool require_unique_weights = true);

/// Theorem 2(b)'s strict output criterion: every MST edge must be known by
/// *both* endpoints' home machines (the classic distributed output
/// convention). This post-pass ships each recorded edge from its proxy to
/// the two home machines. The paper proves Ω~(n/k) rounds are unavoidable
/// for this criterion — the cost concentrates on machines hosting
/// high-degree vertices (e.g. a star center's home must receive ~n edge
/// records over its k-1 links), which bench_ablations measures.
struct StrictMstOutput {
  /// edges_by_home[i] = MST edges incident to a vertex hosted by machine i
  /// (deduplicated, sorted); union over machines = the MST, and every edge
  /// appears at both endpoints' home machines.
  std::vector<std::vector<WeightedEdge>> edges_by_home;
  RunStats stats;  // cost of the announcement pass alone
};

/// `threads` parallelizes the per-machine announce/collect handlers
/// (same semantics as BoruvkaConfig::threads; ledger is thread-invariant).
/// `obs` optionally records the pass into the caller's observability sinks
/// (same contract as BoruvkaConfig::obs); `cancel`/`pool` ride along with
/// the BoruvkaConfig seam semantics (rule 9 / shared-pool multiplexing).
[[nodiscard]] StrictMstOutput announce_mst_to_home_machines(Cluster& cluster,
                                                            const DistributedGraph& dg,
                                                            const BoruvkaResult& mst,
                                                            unsigned threads = 1,
                                                            const ObsSink* obs = nullptr,
                                                            CancelPoint* cancel = nullptr,
                                                            ThreadPool* pool = nullptr);

}  // namespace kmm
