#pragma once
// A graph distributed over k machines under a vertex partition.
//
// Mirrors the model's initial knowledge (Section 1.1): the home machine of v
// knows v's incident edges, their weights, and — because RVP is realized by
// hashing — the home machine of every neighbor. Algorithms must only touch
// adjacency through the hosting machine; the per-machine vertex lists below
// are the iteration order that discipline uses.
//
// Two backends share this interface:
//   * materialized — a non-owning view over a global `Graph` (the classic
//     small-tier path).
//   * shard-direct — per-machine SoA adjacency shards built by the streaming
//     ingest plane (cluster/stream_ingest.hpp) without ever holding a global
//     edge list or Graph. graph() hard-fails here: no machine (and no
//     referee) ever saw the global graph, which is the point of the
//     n >= 10^8 tier. Weights are stored only when some edge weight differs
//     from 1, so the unweighted tier pays 4 bytes per half-edge.
// Both backends present neighbors(v) sorted ascending by neighbor id, so
// algorithm traffic — and therefore the ClusterStats ledger — is
// bit-identical whichever backend hosts the graph. The verifiers, min-cut
// and two-edge connectivity never read graph(): the subgraphs they reduce
// to are derived per machine (derive(), without_edges(), double_cover()),
// shard-direct on either backend.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"

namespace kmm {

namespace detail {
/// Weight every unweighted half-edge reads through a stride-0 pointer.
inline constexpr Weight kUnitWeight = 1;
}  // namespace detail

/// Per-machine slice of a shard-direct adjacency: the `to` ids (and weights,
/// when the graph is weighted) of every half-edge whose source vertex the
/// machine hosts, grouped by source in ascending hosted-vertex order.
struct MachineShard {
  std::vector<Vertex> to;
  std::vector<Weight> weight;  // parallel to `to`; empty when all weights == 1

  [[nodiscard]] std::size_t bytes() const noexcept {
    return to.size() * sizeof(Vertex) + weight.size() * sizeof(Weight);
  }
};

/// Shard-direct adjacency storage: k machine shards plus the global
/// per-vertex index into them (vstart/vdeg live with the vertex's home
/// machine conceptually; they are stored flat for O(1) lookup).
struct ShardedAdjacency {
  std::size_t n = 0;
  std::size_t num_half_edges = 0;        // sum of degrees == 2m
  std::vector<std::uint64_t> vstart;     // n: offset of v's slots in its home shard
  std::vector<std::uint32_t> vdeg;       // n: degree of v
  std::vector<MachineShard> shards;      // one per machine
};

static_assert(sizeof(HalfEdge) == 16, "NeighborView strides assume padded AoS HalfEdge");

/// Adjacency range abstracting over the two storage layouts: AoS HalfEdge
/// (materialized Graph) and SoA to/weight shard arrays (stride 0 over a
/// static unit weight when unweighted). Iteration yields HalfEdge by value;
/// `for (const auto& he : dg.neighbors(v))` compiles unchanged against
/// either backend.
class NeighborView {
 public:
  class iterator {
   public:
    using value_type = HalfEdge;
    using difference_type = std::ptrdiff_t;

    [[nodiscard]] HalfEdge operator*() const noexcept { return HalfEdge{*to_, *w_}; }
    iterator& operator++() noexcept {
      to_ += to_step_;
      w_ += w_step_;
      return *this;
    }
    iterator operator++(int) noexcept {
      iterator old = *this;
      ++*this;
      return old;
    }
    [[nodiscard]] bool operator==(const iterator& o) const noexcept { return to_ == o.to_; }
    [[nodiscard]] bool operator!=(const iterator& o) const noexcept { return to_ != o.to_; }

   private:
    friend class NeighborView;
    iterator(const Vertex* to, const Weight* w, std::uint32_t to_step,
             std::uint32_t w_step) noexcept
        : to_(to), w_(w), to_step_(to_step), w_step_(w_step) {}
    const Vertex* to_;
    const Weight* w_;
    std::uint32_t to_step_, w_step_;
  };

  NeighborView(const Vertex* to, const Weight* w, std::uint32_t to_step,
               std::uint32_t w_step, std::size_t count) noexcept
      : to_(to), w_(w), to_step_(to_step), w_step_(w_step), count_(count) {}

  /// The materialized layout: a span of padded AoS HalfEdge records.
  [[nodiscard]] static NeighborView over(std::span<const HalfEdge> aos) noexcept {
    const auto* base = reinterpret_cast<const std::byte*>(aos.data());
    return NeighborView(reinterpret_cast<const Vertex*>(base + offsetof(HalfEdge, to)),
                        reinterpret_cast<const Weight*>(base + offsetof(HalfEdge, weight)),
                        sizeof(HalfEdge) / sizeof(Vertex), sizeof(HalfEdge) / sizeof(Weight),
                        aos.size());
  }

  [[nodiscard]] iterator begin() const noexcept { return {to_, w_, to_step_, w_step_}; }
  [[nodiscard]] iterator end() const noexcept {
    return {to_ + count_ * to_step_, w_, to_step_, w_step_};
  }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

 private:
  const Vertex* to_;
  const Weight* w_;
  std::uint32_t to_step_, w_step_;
  std::size_t count_;
};

class DistributedGraph {
 public:
  /// Materialized backend: a non-owning view over `graph` (which must
  /// outlive this object). Builds the per-machine hosted-vertex lists
  /// (CSR-flattened: one offset table plus one flat vertex array, so
  /// construction allocates exactly twice however large k is). With a pool,
  /// the home() evaluation and the scatter run chunked in parallel —
  /// two-pass, per-chunk histograms, no atomics — producing the identical
  /// flat array for every thread count.
  explicit DistributedGraph(const Graph& graph, VertexPartition partition,
                            ThreadPool* pool = nullptr);

  /// Validating factory for externally assembled (graph, partition) pairs:
  /// a size mismatch comes back as a BuildError instead of aborting.
  [[nodiscard]] static Expected<DistributedGraph, BuildError> make(
      const Graph& graph, VertexPartition partition, ThreadPool* pool = nullptr);

  /// Shard-direct backend: takes ownership of adjacency shards built by the
  /// streaming ingest plane. Same hosted-list construction; graph() is
  /// unavailable.
  DistributedGraph(ShardedAdjacency sharded, VertexPartition partition,
                   ThreadPool* pool = nullptr);

  /// True when a global Graph backs this view.
  [[nodiscard]] bool materialized() const noexcept { return graph_ != nullptr; }

  /// The global graph — materialized backend only (checked).
  [[nodiscard]] const Graph& graph() const {
    KMM_CHECK_MSG(graph_ != nullptr,
                  "DistributedGraph::graph(): shard-direct ingest never materializes the "
                  "global graph; use a materialized build for verifiers/global algorithms");
    return *graph_;
  }
  [[nodiscard]] const VertexPartition& partition() const noexcept { return partition_; }

  [[nodiscard]] std::size_t num_vertices() const noexcept {
    return graph_ != nullptr ? graph_->num_vertices() : sharded_.n;
  }
  [[nodiscard]] std::size_t num_edges() const noexcept {
    return graph_ != nullptr ? graph_->num_edges() : sharded_.num_half_edges / 2;
  }
  [[nodiscard]] MachineId machines() const noexcept { return partition_.machines(); }
  /// partition().home(v), served from the per-vertex table build_hosted
  /// fills once — an inline bounds-checked load instead of a hash per call.
  [[nodiscard]] MachineId home(Vertex v) const {
    KMM_CHECK(v < home_.size());
    return home_[v];
  }

  /// Vertices hosted by machine i (ascending ids; deterministic).
  [[nodiscard]] std::span<const Vertex> vertices_of(MachineId i) const;

  /// Local adjacency view for a hosted vertex — ascending by neighbor id on
  /// both backends.
  [[nodiscard]] NeighborView neighbors(Vertex v) const {
    if (graph_ != nullptr) return NeighborView::over(graph_->neighbors(v));
    const MachineShard& shard = sharded_.shards[home(v)];
    const std::uint64_t start = sharded_.vstart[v];
    const std::uint32_t deg = sharded_.vdeg[v];
    if (shard.weight.empty()) {
      return NeighborView(shard.to.data() + start, &detail::kUnitWeight, 1, 0, deg);
    }
    return NeighborView(shard.to.data() + start, shard.weight.data() + start, 1, 1, deg);
  }

  [[nodiscard]] std::size_t degree(Vertex v) const {
    if (graph_ != nullptr) return graph_->degree(v);
    KMM_CHECK(v < sharded_.n);
    return sharded_.vdeg[v];
  }

  /// True iff {x, y} is an edge: a scan of x's adjacency at home(x), on
  /// either backend. Out-of-range ids are not edges.
  [[nodiscard]] bool has_edge(Vertex x, Vertex y) const;

  /// The subgraph every machine derives from its own adjacency without
  /// communication: the same vertex set and partition, where machine
  /// home(v) keeps each half-edge (v, u, w) of a hosted v for which
  /// keep(v, u, w) holds. `keep` must be symmetric in (v, u), as a predicate
  /// over edge_index(v, u, n) is, so both homes of an edge agree on it. The
  /// result is shard-direct with neighbors ascending; no global edge list
  /// or Graph is built. Machines run concurrently on `pool` when given
  /// (call from the driver thread: the pool is not reentrant); the result
  /// is identical for every thread count.
  [[nodiscard]] DistributedGraph derive(const std::function<bool(Vertex, Vertex, Weight)>& keep,
                                        ThreadPool* pool = nullptr) const;

  /// derive() keeping every edge except the undirected `removed` ones
  /// (either orientation; pairs that are not edges are ignored).
  [[nodiscard]] DistributedGraph without_edges(
      const std::vector<std::pair<Vertex, Vertex>>& removed, ThreadPool* pool = nullptr) const;

  /// The bipartite double cover, built per machine: vertex v splits into 2v
  /// and 2v+1, both hosted by home(v); 2v's neighbors are {2u+1} and
  /// 2v+1's are {2u} for u in neighbors(v). Unweighted. A component of G
  /// lifts to two components iff it is bipartite, else to one.
  [[nodiscard]] DistributedGraph double_cover(ThreadPool* pool = nullptr) const;

  /// max_i |vertices_of(i)| — the Θ~(n/k) balance the RVP guarantees.
  [[nodiscard]] std::size_t max_machine_load() const;

  /// Adjacency bytes held by machine i's shard (0 on the materialized
  /// backend, which holds no shards).
  [[nodiscard]] std::size_t shard_bytes(MachineId i) const {
    if (graph_ != nullptr) return 0;
    KMM_CHECK(i < sharded_.shards.size());
    return sharded_.shards[i].bytes();
  }
  [[nodiscard]] std::size_t max_shard_bytes() const;

 private:
  void build_hosted(std::size_t n, ThreadPool* pool);

  const Graph* graph_ = nullptr;  // non-owning; outlives this view (or null)
  ShardedAdjacency sharded_;      // owned; empty on the materialized backend
  VertexPartition partition_;
  // CSR layout: machine i hosts hosted_[hosted_offsets_[i] ..
  // hosted_offsets_[i+1]), ascending vertex ids.
  std::vector<std::size_t> hosted_offsets_;  // machines()+1 entries
  std::vector<Vertex> hosted_;               // flat, grouped by machine
  std::vector<MachineId> home_;              // n: partition_.home(v), cached
};

}  // namespace kmm
