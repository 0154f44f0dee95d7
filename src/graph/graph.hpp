#pragma once
// Undirected (optionally weighted) graph in CSR form.
//
// Vertices are dense ids [0, n). Each undirected edge {x, y} is stored twice
// (once per endpoint) and identified globally by its *edge index*
// `edge_index(x, y) = min*n + max`, the encoding the incidence vectors of
// Section 2.3 are defined over (a point in [0, n^2) ⊃ [0, C(n,2))).

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"
#include "util/expected.hpp"

namespace kmm {

class ThreadPool;  // util/thread_pool.hpp — only the parallel ctor needs it

using Vertex = std::uint32_t;
using Weight = std::uint64_t;
using EdgeIndex = std::uint64_t;

/// Directed half-edge as seen from one endpoint.
struct HalfEdge {
  Vertex to;
  Weight weight;
};

struct WeightedEdge {
  Vertex u, v;
  Weight w;

  friend bool operator==(const WeightedEdge&, const WeightedEdge&) = default;
};

/// FNV-1a fingerprint of an edge list's (u, v, w) stream — the single
/// identity check shared by the generator golden pins (tests) and the
/// input-pipeline determinism cross-checks (benches), so the two can never
/// silently validate different things.
[[nodiscard]] inline std::uint64_t edge_list_fingerprint(
    const std::vector<WeightedEdge>& edges) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  for (const auto& e : edges) {
    mix(e.u);
    mix(e.v);
    mix(e.w);
  }
  return h;
}

/// Canonical global index of the undirected edge {x, y} in [0, n^2).
[[nodiscard]] constexpr EdgeIndex edge_index(Vertex x, Vertex y, std::uint64_t n) noexcept {
  const Vertex lo = x < y ? x : y;
  const Vertex hi = x < y ? y : x;
  return static_cast<EdgeIndex>(lo) * n + hi;
}

/// Inverse of edge_index.
[[nodiscard]] constexpr std::pair<Vertex, Vertex> edge_endpoints(EdgeIndex e,
                                                                 std::uint64_t n) noexcept {
  return {static_cast<Vertex>(e / n), static_cast<Vertex>(e % n)};
}

class Graph {
 public:
  Graph() = default;

  /// Builds CSR from an undirected edge list; parallel edges and self-loops
  /// are rejected (checked). Vertices referenced must be < n.
  Graph(std::size_t n, std::vector<WeightedEdge> edges);

  /// Validating factory for edge lists of *external* origin (files, flags,
  /// wire input): pre-checks every rule the ctor would abort on — endpoint
  /// range, self-loops, parallel edges — plus the positive weights the MST
  /// engine requires, and returns the diagnostic as data instead. On
  /// success the graph is identical to `Graph(n, edges, pool)`.
  [[nodiscard]] static Expected<Graph, BuildError> make(std::size_t n,
                                                        std::vector<WeightedEdge> edges,
                                                        ThreadPool* pool = nullptr);

  /// Same, with the heavy passes (canonicalize/validate, sort, degree
  /// count, adjacency fill) parallelized on `pool` — the input-pipeline
  /// ctor for the n >= 10^6 tier. The result is IDENTICAL to the serial
  /// ctor for any thread count: the canonical (u, v) edge sort has no equal
  /// keys (parallel edges are rejected), and each adjacency list is sorted
  /// ascending by neighbor id, which is exactly the order the serial fill
  /// produces. Pre-sorted inputs (the chunked generators emit edges in
  /// canonical order) skip the sort pass entirely. pool == nullptr or small
  /// inputs fall back to the serial path.
  Graph(std::size_t n, std::vector<WeightedEdge> edges, ThreadPool* pool);

  [[nodiscard]] std::size_t num_vertices() const noexcept { return n_; }
  [[nodiscard]] std::size_t num_edges() const noexcept { return edges_.size(); }

  [[nodiscard]] std::span<const HalfEdge> neighbors(Vertex v) const {
    KMM_CHECK(v < n_);
    return {adj_.data() + offsets_[v], adj_.data() + offsets_[v + 1]};
  }

  [[nodiscard]] std::size_t degree(Vertex v) const {
    KMM_CHECK(v < n_);
    return offsets_[v + 1] - offsets_[v];
  }

  /// The unique undirected edges, each with u < v, sorted by (u, v).
  [[nodiscard]] const std::vector<WeightedEdge>& edges() const noexcept { return edges_; }

  [[nodiscard]] bool has_edge(Vertex x, Vertex y) const;
  [[nodiscard]] Weight max_weight() const noexcept { return max_weight_; }

  /// True if all edge weights are pairwise distinct (MST uniqueness).
  [[nodiscard]] bool has_unique_weights() const;

  /// A copy of this graph with the given undirected edges removed.
  [[nodiscard]] Graph without_edges(const std::vector<std::pair<Vertex, Vertex>>& removed) const;

 private:
  void build_serial(std::vector<WeightedEdge> edges);
  void build_parallel(std::vector<WeightedEdge> edges, ThreadPool& pool);

  std::size_t n_ = 0;
  std::vector<std::size_t> offsets_;  // n_+1 entries
  std::vector<HalfEdge> adj_;
  std::vector<WeightedEdge> edges_;  // unique edges, u < v, sorted
  Weight max_weight_ = 0;
};

}  // namespace kmm
