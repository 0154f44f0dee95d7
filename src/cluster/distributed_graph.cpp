#include "cluster/distributed_graph.hpp"

#include <algorithm>
#include <string>

#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace kmm {

namespace {
// Below this the chunked build's histogram pass costs more than it saves.
constexpr std::size_t kParallelVertexCutoff = 1 << 15;
}  // namespace

Expected<DistributedGraph, BuildError> DistributedGraph::make(const Graph& graph,
                                                              VertexPartition partition,
                                                              ThreadPool* pool) {
  if (partition.num_vertices() != graph.num_vertices()) {
    return Expected<DistributedGraph, BuildError>::err(
        {"partition size must match the graph: partition covers " +
         std::to_string(partition.num_vertices()) + " vertices, graph has " +
         std::to_string(graph.num_vertices())});
  }
  return DistributedGraph(graph, std::move(partition), pool);
}

DistributedGraph::DistributedGraph(const Graph& graph, VertexPartition partition,
                                   ThreadPool* pool)
    : graph_(&graph), partition_(std::move(partition)) {
  KMM_CHECK_MSG(partition_.num_vertices() == graph.num_vertices(),
                "partition size must match the graph");
  build_hosted(graph.num_vertices(), pool);
}

DistributedGraph::DistributedGraph(ShardedAdjacency sharded, VertexPartition partition,
                                   ThreadPool* pool)
    : sharded_(std::move(sharded)), partition_(std::move(partition)) {
  KMM_CHECK_MSG(partition_.num_vertices() == sharded_.n,
                "partition size must match the sharded adjacency");
  KMM_CHECK_MSG(sharded_.shards.size() == partition_.machines(),
                "one shard per machine required");
  KMM_CHECK(sharded_.vstart.size() == sharded_.n && sharded_.vdeg.size() == sharded_.n);
  build_hosted(sharded_.n, pool);
}

void DistributedGraph::build_hosted(std::size_t n, ThreadPool* pool) {
  const MachineId k = partition_.machines();
  hosted_offsets_.assign(static_cast<std::size_t>(k) + 1, 0);
  hosted_.resize(n);
  home_.resize(n);

  if (pool == nullptr || pool->size() <= 1 || n < kParallelVertexCutoff) {
    std::vector<std::size_t> loads(k, 0);
    for (Vertex v = 0; v < n; ++v) ++loads[home_[v] = partition_.home(v)];
    for (MachineId i = 0; i < k; ++i) hosted_offsets_[i + 1] = hosted_offsets_[i] + loads[i];
    std::vector<std::size_t> cursor(hosted_offsets_.begin(), hosted_offsets_.end() - 1);
    for (Vertex v = 0; v < n; ++v) hosted_[cursor[home_[v]]++] = v;
    return;
  }

  // Two-pass chunked build: per-chunk machine histograms (filling the home
  // table on the way), an exclusive prefix over (machine, chunk) that turns
  // each histogram row into that chunk's write cursors, then a race-free
  // scatter. Chunks cover ascending vertex ranges and scan them in ascending
  // order, so machine i's slice is ascending — identical to the serial fill
  // — for every thread count.
  const std::size_t chunks = parallel_chunks(n, pool->size());
  const auto vchunk = [&](std::size_t c) {
    return std::pair{n * c / chunks, n * (c + 1) / chunks};
  };
  std::vector<std::size_t> hist(chunks * k, 0);
  pool->parallel_for(chunks, [&](std::size_t c) {
    const auto [lo, hi] = vchunk(c);
    std::size_t* row = hist.data() + c * k;
    for (std::size_t v = lo; v < hi; ++v) {
      ++row[home_[v] = partition_.home(static_cast<Vertex>(v))];
    }
  });
  for (MachineId i = 0; i < k; ++i) {
    std::size_t running = hosted_offsets_[i];
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t count = hist[c * k + i];
      hist[c * k + i] = running;
      running += count;
    }
    hosted_offsets_[i + 1] = running;
  }
  pool->parallel_for(chunks, [&](std::size_t c) {
    const auto [lo, hi] = vchunk(c);
    std::size_t* cursor = hist.data() + c * k;
    for (std::size_t v = lo; v < hi; ++v) {
      hosted_[cursor[home_[v]]++] = static_cast<Vertex>(v);
    }
  });
}

std::span<const Vertex> DistributedGraph::vertices_of(MachineId i) const {
  KMM_CHECK(i + 1 < hosted_offsets_.size());
  return {hosted_.data() + hosted_offsets_[i], hosted_.data() + hosted_offsets_[i + 1]};
}

std::size_t DistributedGraph::max_machine_load() const {
  std::size_t best = 0;
  for (std::size_t i = 0; i + 1 < hosted_offsets_.size(); ++i) {
    best = std::max(best, hosted_offsets_[i + 1] - hosted_offsets_[i]);
  }
  return best;
}

std::size_t DistributedGraph::max_shard_bytes() const {
  std::size_t best = 0;
  for (const auto& shard : sharded_.shards) best = std::max(best, shard.bytes());
  return best;
}

}  // namespace kmm
