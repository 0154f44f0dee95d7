#include "cluster/stream_ingest.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault_schedule.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace kmm {

namespace {

constexpr std::uint64_t kNoEdge = ~std::uint64_t{0};

/// Orders edges by (min endpoint, max endpoint).
std::uint64_t edge_key(Vertex u, Vertex v) {
  return std::uint64_t{std::min(u, v)} << 32 | std::max(u, v);
}

unsigned resolve_ingest_threads(unsigned requested) {
  return requested != 0 ? requested : std::max(1u, std::thread::hardware_concurrency());
}

/// Projected resident bytes of machine i's shard state: its adjacency slots
/// plus the vstart/vdeg index entries of its hosted vertices — the per-
/// machine state the budget caps.
std::size_t projected_machine_bytes(std::uint64_t slots, std::size_t hosted,
                                    bool weighted) {
  const std::size_t per_slot = sizeof(Vertex) + (weighted ? sizeof(Weight) : 0);
  const std::size_t per_vertex = sizeof(std::uint64_t) + sizeof(std::uint32_t);
  return static_cast<std::size_t>(slots) * per_slot + hosted * per_vertex;
}

}  // namespace

Expected<DistributedGraph, IngestError> stream_ingest(std::size_t n,
                                                      VertexPartition partition,
                                                      const gen::EdgeStream& stream,
                                                      const StreamIngestOptions& opts) {
  KMM_CHECK_MSG(partition.num_vertices() == n, "stream_ingest: partition size must match n");
  const MachineId k = partition.machines();

  std::optional<ThreadPool> owned;
  ThreadPool* pool = opts.pool;
  if (pool == nullptr) pool = &owned.emplace(resolve_ingest_threads(opts.threads));

  // COUNT: replay the stream, tallying candidate degrees. cnt doubles as the
  // fill pass's per-vertex slot cursor afterwards, so the whole pipeline
  // carries one 4-byte atomic per vertex of transient state.
  // A weight-0 edge is rejected as Graph::make rejects it. The smallest
  // offending (min, max) endpoint pair is kept, so the diagnostic does not
  // depend on which ingest thread saw which chunk first.
  std::vector<std::atomic<std::uint32_t>> cnt(n);
  std::atomic<bool> any_weighted{false};
  std::atomic<std::uint64_t> zero_weight{kNoEdge};
  stream([&](std::size_t, std::span<const WeightedEdge> edges) {
    bool saw_weight = false;
    std::uint64_t chunk_zero = kNoEdge;
    for (const auto& e : edges) {
      KMM_CHECK_MSG(e.u < n && e.v < n && e.u != e.v,
                    "stream_ingest: streamed edge out of range or self-loop");
      cnt[e.u].fetch_add(1, std::memory_order_relaxed);
      cnt[e.v].fetch_add(1, std::memory_order_relaxed);
      saw_weight |= e.w != 1;
      if (e.w == 0) chunk_zero = std::min(chunk_zero, edge_key(e.u, e.v));
    }
    if (saw_weight) any_weighted.store(true, std::memory_order_relaxed);
    std::uint64_t cur = zero_weight.load(std::memory_order_relaxed);
    while (chunk_zero < cur &&
           !zero_weight.compare_exchange_weak(cur, chunk_zero, std::memory_order_relaxed)) {
    }
  });
  if (const std::uint64_t key = zero_weight.load(std::memory_order_relaxed); key != kNoEdge) {
    return Expected<DistributedGraph, IngestError>::err(IngestError{
        "stream_ingest: edge weights must be positive: edge {" + std::to_string(key >> 32) +
        ", " + std::to_string(key & 0xffffffffu) + "} has weight 0"});
  }
  const bool weighted = any_weighted.load(std::memory_order_relaxed);

  // LAYOUT: per-machine slot layout over ascending vertex ids — the same
  // ascending hosted order the finalize pass walks, so a vertex's slots sit
  // after every lower-id hosted sibling's.
  ShardedAdjacency sharded;
  sharded.n = n;
  sharded.vstart.resize(n);
  sharded.vdeg.assign(n, 0);
  std::vector<std::uint64_t> machine_slots(k, 0);
  for (std::size_t v = 0; v < n; ++v) {
    const MachineId mi = partition.home(static_cast<Vertex>(v));
    sharded.vstart[v] = machine_slots[mi];
    machine_slots[mi] += cnt[v].load(std::memory_order_relaxed);
  }

  // Budget check BEFORE allocating any shard: return a structured error
  // naming the overflowing machine instead of OOM-ing the host (the CLI
  // prints the message and exits nonzero; library callers can recover).
  if (opts.budget.bytes_per_machine != 0) {
    std::vector<std::size_t> loads;
    partition.loads(loads);
    for (MachineId i = 0; i < k; ++i) {
      const std::size_t need = projected_machine_bytes(machine_slots[i], loads[i], weighted);
      if (need > opts.budget.bytes_per_machine) {
        char msg[256];
        std::snprintf(msg, sizeof msg,
                      "stream_ingest: machine %u needs %zu bytes but the per-machine "
                      "memory budget is %zu bytes (n=%zu, k=%u) — raise --mem-budget or "
                      "add machines",
                      i, need, opts.budget.bytes_per_machine, n, k);
        return Expected<DistributedGraph, IngestError>::err(IngestError{msg});
      }
    }
  }

  // Scheduled ingest allocation failures (fault plane): deterministic
  // stand-in for a machine OOM-ing while materializing its shard.
  if (opts.fault != nullptr) {
    for (MachineId i = 0; i < k; ++i) {
      if (opts.fault->ingest_alloc_fails(i)) {
        char msg[192];
        std::snprintf(msg, sizeof msg,
                      "stream_ingest: simulated allocation failure at machine %u "
                      "(fault schedule)",
                      i);
        return Expected<DistributedGraph, IngestError>::err(IngestError{msg});
      }
    }
  }

  sharded.shards.resize(k);
  for (MachineId i = 0; i < k; ++i) {
    sharded.shards[i].to.resize(machine_slots[i]);
    if (weighted) sharded.shards[i].weight.resize(machine_slots[i]);
  }

  // FILL: replay the stream, claiming slots with per-vertex atomic cursors.
  // Slot order within a vertex is thread-dependent; FINALIZE's sort erases it.
  for (auto& c : cnt) c.store(0, std::memory_order_relaxed);
  const auto place = [&](Vertex src, Vertex dst, Weight w) {
    MachineShard& shard = sharded.shards[partition.home(src)];
    const std::uint64_t slot =
        sharded.vstart[src] + cnt[src].fetch_add(1, std::memory_order_relaxed);
    shard.to[slot] = dst;
    if (weighted) shard.weight[slot] = w;
  };
  stream([&](std::size_t, std::span<const WeightedEdge> edges) {
    for (const auto& e : edges) {
      place(e.u, e.v, e.w);
      place(e.v, e.u, e.w);
    }
  });

  // FINALIZE: per vertex, sort slots ascending by neighbor id, drop
  // adjacent duplicate candidates, compact the shard in place (the write
  // cursor never passes the read cursor: dedup only shrinks). One machine
  // per task; every vertex belongs to exactly one machine, so the passes
  // are race-free and the result is canonical for any schedule.
  std::vector<std::uint64_t> final_slots(k, 0);
  std::vector<std::vector<Vertex>> hosted_scratch(pool->size());
  std::vector<std::vector<HalfEdge>> edge_scratch(pool->size());
  pool->parallel_for(k, [&](std::size_t mi) {
    const unsigned lane = ThreadPool::current_lane();
    auto& hosted = hosted_scratch[lane];
    auto& tmp = edge_scratch[lane];
    partition.hosted_by(static_cast<MachineId>(mi), hosted);
    MachineShard& shard = sharded.shards[mi];
    std::uint64_t wc = 0;
    for (const Vertex v : hosted) {
      const std::uint64_t rs = sharded.vstart[v];
      const std::uint32_t rc = cnt[v].load(std::memory_order_relaxed);
      tmp.resize(rc);
      for (std::uint32_t j = 0; j < rc; ++j) {
        tmp[j] = HalfEdge{shard.to[rs + j], weighted ? shard.weight[rs + j] : Weight{1}};
      }
      std::sort(tmp.begin(), tmp.end(),
                [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });
      sharded.vstart[v] = wc;
      std::uint32_t deg = 0;
      for (std::uint32_t j = 0; j < rc; ++j) {
        if (j > 0 && tmp[j].to == tmp[j - 1].to) {
          // Stream contract rule 5: duplicate candidates carry identical
          // weights, so dropping either is the same edge set.
          KMM_DCHECK(tmp[j].weight == tmp[j - 1].weight);
          continue;
        }
        shard.to[wc] = tmp[j].to;
        if (weighted) shard.weight[wc] = tmp[j].weight;
        ++wc;
        ++deg;
      }
      sharded.vdeg[v] = deg;
    }
    shard.to.resize(wc);
    shard.to.shrink_to_fit();
    if (weighted) {
      shard.weight.resize(wc);
      shard.weight.shrink_to_fit();
    }
    final_slots[mi] = wc;
  });
  for (MachineId i = 0; i < k; ++i) sharded.num_half_edges += final_slots[i];
  KMM_CHECK_MSG(sharded.num_half_edges % 2 == 0,
                "stream_ingest: half-edge count must be even");

  return DistributedGraph(std::move(sharded), std::move(partition), pool);
}

}  // namespace kmm
