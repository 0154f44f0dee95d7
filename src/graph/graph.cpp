#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "util/thread_pool.hpp"

namespace kmm {

namespace {

// Below this many edges the parallel ctor's extra passes (atomic counts,
// scatter, per-bucket sorts) cost more than they save.
constexpr std::size_t kParallelEdgeCutoff = 1 << 15;

constexpr bool edge_key_less(const WeightedEdge& a, const WeightedEdge& b) noexcept {
  return a.u < b.u || (a.u == b.u && a.v < b.v);
}

}  // namespace

Graph::Graph(std::size_t n, std::vector<WeightedEdge> edges) : n_(n) {
  build_serial(std::move(edges));
}

Expected<Graph, BuildError> Graph::make(std::size_t n, std::vector<WeightedEdge> edges,
                                        ThreadPool* pool) {
  for (const auto& e : edges) {
    if (e.u >= n || e.v >= n) {
      return Expected<Graph, BuildError>::err(
          {"edge endpoint out of range: {" + std::to_string(e.u) + ", " + std::to_string(e.v) +
           "} with n = " + std::to_string(n)});
    }
    if (e.u == e.v) {
      return Expected<Graph, BuildError>::err(
          {"self-loops are not supported: vertex " + std::to_string(e.u)});
    }
    if (e.w == 0) {
      return Expected<Graph, BuildError>::err(
          {"edge weights must be positive: edge {" + std::to_string(e.u) + ", " +
           std::to_string(e.v) + "} has weight 0"});
    }
  }
  // Parallel-edge detection on a canonical key copy, leaving `edges` in the
  // caller's order for the ctor (whose own sort produces the CSR).
  std::vector<std::pair<Vertex, Vertex>> keys;
  keys.reserve(edges.size());
  for (const auto& e : edges) {
    keys.emplace_back(e.u < e.v ? e.u : e.v, e.u < e.v ? e.v : e.u);
  }
  std::sort(keys.begin(), keys.end());
  if (const auto dup = std::adjacent_find(keys.begin(), keys.end()); dup != keys.end()) {
    return Expected<Graph, BuildError>::err(
        {"parallel edges are not supported: duplicate edge {" + std::to_string(dup->first) +
         ", " + std::to_string(dup->second) + "}"});
  }
  return Graph(n, std::move(edges), pool);
}

Graph::Graph(std::size_t n, std::vector<WeightedEdge> edges, ThreadPool* pool) : n_(n) {
  if (pool == nullptr || pool->size() <= 1 || edges.size() < kParallelEdgeCutoff) {
    build_serial(std::move(edges));
  } else {
    build_parallel(std::move(edges), *pool);
  }
}

void Graph::build_serial(std::vector<WeightedEdge> edges) {
  // Canonicalize to u < v, sort, and validate.
  for (auto& e : edges) {
    KMM_CHECK_MSG(e.u < n_ && e.v < n_, "edge endpoint out of range");
    KMM_CHECK_MSG(e.u != e.v, "self-loops are not supported");
    if (e.u > e.v) std::swap(e.u, e.v);
  }
  std::sort(edges.begin(), edges.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    return std::pair{a.u, a.v} < std::pair{b.u, b.v};
  });
  for (std::size_t i = 1; i < edges.size(); ++i) {
    KMM_CHECK_MSG(edges[i - 1].u != edges[i].u || edges[i - 1].v != edges[i].v,
                  "parallel edges are not supported");
  }
  edges_ = std::move(edges);

  offsets_.assign(n_ + 1, 0);
  for (const auto& e : edges_) {
    ++offsets_[e.u + 1];
    ++offsets_[e.v + 1];
    max_weight_ = std::max(max_weight_, e.w);
  }
  for (std::size_t v = 0; v < n_; ++v) offsets_[v + 1] += offsets_[v];

  adj_.resize(2 * edges_.size());
  std::vector<std::size_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const auto& e : edges_) {
    adj_[cursor[e.u]++] = HalfEdge{e.v, e.w};
    adj_[cursor[e.v]++] = HalfEdge{e.u, e.w};
  }
}

void Graph::build_parallel(std::vector<WeightedEdge> edges, ThreadPool& pool) {
  const std::size_t m = edges.size();
  const std::size_t chunks = parallel_chunks(m, pool.size());
  const auto echunk = [&](std::size_t c) {
    return std::pair{m * c / chunks, m * (c + 1) / chunks};
  };
  const std::size_t vchunks = parallel_chunks(n_, pool.size());
  const auto vchunk = [&](std::size_t c) {
    return std::pair{n_ * c / vchunks, n_ * (c + 1) / vchunks};
  };

  // Pass 1: canonicalize to u < v, validate, per-chunk max weight. A failed
  // KMM_CHECK aborts the process, so firing from a worker is fine.
  std::vector<Weight> chunk_max(chunks, 0);
  std::vector<std::uint8_t> chunk_sorted(chunks, 1);
  pool.parallel_for(chunks, [&](std::size_t c) {
    const auto [lo, hi] = echunk(c);
    Weight mx = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      auto& e = edges[i];
      KMM_CHECK_MSG(e.u < n_ && e.v < n_, "edge endpoint out of range");
      KMM_CHECK_MSG(e.u != e.v, "self-loops are not supported");
      if (e.u > e.v) std::swap(e.u, e.v);
      mx = std::max(mx, e.w);
    }
    chunk_max[c] = mx;
  });
  for (const Weight w : chunk_max) max_weight_ = std::max(max_weight_, w);

  // Pass 2: sort by (u, v) — skipped when the input is already canonical
  // (the chunked generators emit edges in ascending edge-index order).
  // Chunk c checks the pairs ending in [lo, hi), so boundaries are covered.
  pool.parallel_for(chunks, [&](std::size_t c) {
    const auto [lo, hi] = echunk(c);
    for (std::size_t i = std::max<std::size_t>(lo, 1); i < hi; ++i) {
      if (edge_key_less(edges[i], edges[i - 1])) {
        chunk_sorted[c] = 0;
        return;
      }
    }
  });
  const bool pre_sorted =
      std::all_of(chunk_sorted.begin(), chunk_sorted.end(), [](std::uint8_t s) { return s != 0; });
  if (!pre_sorted) {
    // Counting sort by u (atomic count -> prefix -> atomic scatter), then
    // each u-bucket is sorted by v. The scatter order inside a bucket is
    // scheduling-dependent, but the bucket sort re-canonicalizes it: edge
    // keys are unique, so the final order is a total order — deterministic
    // for every thread count.
    auto counts = std::make_unique<std::atomic<std::uint32_t>[]>(n_);
    pool.parallel_for(vchunks, [&](std::size_t c) {
      const auto [lo, hi] = vchunk(c);
      for (std::size_t v = lo; v < hi; ++v) counts[v].store(0, std::memory_order_relaxed);
    });
    pool.parallel_for(chunks, [&](std::size_t c) {
      const auto [lo, hi] = echunk(c);
      for (std::size_t i = lo; i < hi; ++i) {
        counts[edges[i].u].fetch_add(1, std::memory_order_relaxed);
      }
    });
    std::vector<std::size_t> bucket_start(n_ + 1, 0);
    for (std::size_t v = 0; v < n_; ++v) {
      bucket_start[v + 1] = bucket_start[v] + counts[v].load(std::memory_order_relaxed);
      counts[v].store(0, std::memory_order_relaxed);  // reuse as scatter cursors
    }
    std::vector<WeightedEdge> sorted(m);
    pool.parallel_for(chunks, [&](std::size_t c) {
      const auto [lo, hi] = echunk(c);
      for (std::size_t i = lo; i < hi; ++i) {
        const auto rank = counts[edges[i].u].fetch_add(1, std::memory_order_relaxed);
        sorted[bucket_start[edges[i].u] + rank] = edges[i];
      }
    });
    pool.parallel_for(vchunks, [&](std::size_t c) {
      const auto [lo, hi] = vchunk(c);
      for (std::size_t v = lo; v < hi; ++v) {
        std::sort(sorted.begin() + static_cast<std::ptrdiff_t>(bucket_start[v]),
                  sorted.begin() + static_cast<std::ptrdiff_t>(bucket_start[v + 1]),
                  [](const WeightedEdge& a, const WeightedEdge& b) { return a.v < b.v; });
      }
    });
    edges = std::move(sorted);
  }

  // Pass 3: duplicate rejection on the sorted list (adjacent equal keys).
  pool.parallel_for(chunks, [&](std::size_t c) {
    const auto [lo, hi] = echunk(c);
    for (std::size_t i = std::max<std::size_t>(lo, 1); i < hi; ++i) {
      KMM_CHECK_MSG(edges[i - 1].u != edges[i].u || edges[i - 1].v != edges[i].v,
                    "parallel edges are not supported");
    }
  });
  edges_ = std::move(edges);

  // Pass 4: degrees -> offsets (serial prefix over n is cheap relative to
  // the edge passes).
  auto degree = std::make_unique<std::atomic<std::uint32_t>[]>(n_);
  pool.parallel_for(vchunks, [&](std::size_t c) {
    const auto [lo, hi] = vchunk(c);
    for (std::size_t v = lo; v < hi; ++v) degree[v].store(0, std::memory_order_relaxed);
  });
  pool.parallel_for(chunks, [&](std::size_t c) {
    const auto [lo, hi] = echunk(c);
    for (std::size_t i = lo; i < hi; ++i) {
      degree[edges_[i].u].fetch_add(1, std::memory_order_relaxed);
      degree[edges_[i].v].fetch_add(1, std::memory_order_relaxed);
    }
  });
  offsets_.assign(n_ + 1, 0);
  for (std::size_t v = 0; v < n_; ++v) {
    offsets_[v + 1] = offsets_[v] + degree[v].load(std::memory_order_relaxed);
    degree[v].store(0, std::memory_order_relaxed);  // reuse as scatter cursors
  }

  // Pass 5: adjacency scatter + per-vertex neighbor sort. The serial fill
  // appends each vertex's lower neighbors (ascending) before its higher
  // neighbors (ascending) — i.e. the list is sorted by neighbor id — so
  // sorting each scattered list reproduces the serial adjacency exactly.
  adj_.resize(2 * m);
  pool.parallel_for(chunks, [&](std::size_t c) {
    const auto [lo, hi] = echunk(c);
    for (std::size_t i = lo; i < hi; ++i) {
      const auto& e = edges_[i];
      const auto ru = degree[e.u].fetch_add(1, std::memory_order_relaxed);
      adj_[offsets_[e.u] + ru] = HalfEdge{e.v, e.w};
      const auto rv = degree[e.v].fetch_add(1, std::memory_order_relaxed);
      adj_[offsets_[e.v] + rv] = HalfEdge{e.u, e.w};
    }
  });
  pool.parallel_for(vchunks, [&](std::size_t c) {
    const auto [lo, hi] = vchunk(c);
    for (std::size_t v = lo; v < hi; ++v) {
      std::sort(adj_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]),
                adj_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]),
                [](const HalfEdge& a, const HalfEdge& b) { return a.to < b.to; });
    }
  });
}

bool Graph::has_edge(Vertex x, Vertex y) const {
  if (x >= n_ || y >= n_ || x == y) return false;
  // Search from the lower-degree endpoint.
  if (degree(x) > degree(y)) std::swap(x, y);
  for (const auto& he : neighbors(x)) {
    if (he.to == y) return true;
  }
  return false;
}

bool Graph::has_unique_weights() const {
  std::vector<Weight> ws;
  ws.reserve(edges_.size());
  for (const auto& e : edges_) ws.push_back(e.w);
  std::sort(ws.begin(), ws.end());
  return std::adjacent_find(ws.begin(), ws.end()) == ws.end();
}

Graph Graph::without_edges(const std::vector<std::pair<Vertex, Vertex>>& removed) const {
  std::vector<EdgeIndex> gone;
  gone.reserve(removed.size());
  for (auto [x, y] : removed) gone.push_back(edge_index(x, y, n_));
  std::sort(gone.begin(), gone.end());

  std::vector<WeightedEdge> kept;
  kept.reserve(edges_.size());
  for (const auto& e : edges_) {
    if (!std::binary_search(gone.begin(), gone.end(), edge_index(e.u, e.v, n_))) {
      kept.push_back(e);
    }
  }
  return Graph(n_, std::move(kept));
}

}  // namespace kmm
