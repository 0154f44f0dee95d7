#pragma once
// Shard-direct streaming ingest: build a DistributedGraph straight from a
// chunked edge stream, never materializing the global edge list or Graph.
//
// This is the k-machine model's input story taken seriously (Section 1.1 via
// KaGen's communication-free generators): each machine receives exactly its
// hosted vertices' incident edges, routed at generation time by evaluating
// the RVP hash on each endpoint. Peak footprint is the shards themselves
// plus O(n) index state — not the O(m) global edge list plus a second O(m)
// CSR the materialized path pays — which is what opens the n >= 10^8 tier.
//
// Mechanics (two replays of a re-runnable stream, KaGen-style):
//   1. COUNT  — replay the stream, atomically counting each endpoint's
//      candidate degree (rmat streams may contain duplicate candidates;
//      they are counted here and removed in FINALIZE). A weight-0 edge
//      fails here, before any shard is allocated.
//   2. LAYOUT — per-machine slot layout over ascending hosted vertex ids,
//      then the MachineMemoryBudget check: every machine's projected bytes
//      (adjacency slots + per-vertex index entries) must fit the cap, else
//      hard-fail with a diagnostic naming the machine and the shortfall —
//      the honest alternative to silently OOM-ing the host.
//   3. FILL   — replay the stream again, claiming slots with per-vertex
//      atomic cursors (arrival order is thread-dependent; harmless, see 4).
//   4. FINALIZE — per vertex: sort slots ascending by neighbor id, drop
//      adjacent duplicates (stream contract: duplicates carry identical
//      weights), compact the shard in place. The sort erases every trace of
//      arrival order, so shard contents are bit-identical in (stream
//      parameters, seed, partition) for every thread count and ingest
//      batching — the same canonical ascending-neighbor order the
//      materialized Graph CSR produces.
//
// The weight array of a shard is allocated only if some streamed edge has
// weight != 1, so the unweighted tier stores 4 bytes per half-edge.

#include <cstddef>

#include "cluster/distributed_graph.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"
#include "util/expected.hpp"

namespace kmm {

class FaultSchedule;

/// Per-machine byte cap for shard state (0 = unlimited). Models the
/// k-machine assumption that no machine can hold the whole graph: ingest
/// hard-fails with a diagnostic when any machine's shard (adjacency slots
/// plus its hosted vertices' index entries) would exceed the cap.
struct MachineMemoryBudget {
  std::size_t bytes_per_machine = 0;
};

struct StreamIngestOptions {
  MachineMemoryBudget budget;
  /// Worker threads for the layout/finalize passes; 0 = hardware
  /// concurrency. Ignored when `pool` is set. Does NOT affect the result.
  unsigned threads = 1;
  /// Reuse the caller's workers (also handed to the hosted-list build).
  ThreadPool* pool = nullptr;
  /// Optional fault schedule (src/fault/): machines whose shard allocation
  /// is scheduled to fail (add_ingest_alloc_failure / alloc_fail_prob) turn
  /// into a structured IngestError instead of allocating — the deterministic
  /// stand-in for an ingest-time OOM.
  const FaultSchedule* fault = nullptr;
};

/// Build a shard-direct DistributedGraph from a re-runnable edge stream
/// (see the streaming ingest contract in graph/generators.hpp). The stream
/// is replayed twice; edges must satisfy u, v < n and u != v, and duplicate
/// (u, v) occurrences must carry identical weights.
///
/// A weight-0 edge returns an IngestError in Graph::make's wording ("edge
/// weights must be positive"), naming the smallest such edge by (min, max)
/// endpoint, so the diagnostic is the same for every ingest thread count.
/// Resource exhaustion — a machine whose projected shard bytes exceed the
/// MachineMemoryBudget, or a scheduled ingest allocation failure — returns
/// an IngestError naming the machine and shortfall instead of aborting;
/// contract violations in the stream itself (out-of-range edges,
/// self-loops) still abort, as malformed input is a caller bug.
[[nodiscard]] Expected<DistributedGraph, IngestError> stream_ingest(
    std::size_t n, VertexPartition partition, const gen::EdgeStream& stream,
    const StreamIngestOptions& opts = {});

}  // namespace kmm
