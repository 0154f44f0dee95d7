#include "sketch/graph_sketch.hpp"

#include <algorithm>
#include <array>

#include "util/assert.hpp"

namespace kmm {

GraphSketchBuilder::GraphSketchBuilder(std::size_t n, std::uint64_t seed, int copies)
    : n_(n),
      universe_(static_cast<std::uint64_t>(n) * n),
      params_(L0Params::for_universe(universe_, copies)),
      powers_(universe_, copies) {
  KMM_CHECK(n >= 2);
  KMM_CHECK_MSG(copies <= L0Sampler::kMaxCopies,
                "l0 sampler supports at most kMaxCopies copies");
  powers_.rebind(seed);
}

L0Sampler GraphSketchBuilder::empty_sketch() const {
  return L0Sampler(universe_, params_, seed());
}

void GraphSketchBuilder::accumulate_part(const DistributedGraph& dg,
                                         std::span<const Vertex> part, Weight max_weight,
                                         L0Sampler& sink) const {
  KMM_DCHECK(sink.universe() == universe_ && sink.seed() == seed() &&
             sink.params().levels == params_.levels &&
             sink.params().copies == params_.copies);
  const int copies = params_.copies;
  // Highest level + 1 each copy's edges reach; the sink starts zeroed.
  std::array<int, L0Sampler::kMaxCopies> top{};
  for (int c = 0; c < copies; ++c) KMM_DCHECK(sink.used(c) == 0);

  for (const Vertex u : part) {
    for (const auto& he : dg.neighbors(u)) {
      if (he.weight > max_weight) continue;
      const bool lower = u < he.to;
      const std::uint64_t index = lower ? static_cast<std::uint64_t>(u) * n_ + he.to
                                        : static_cast<std::uint64_t>(he.to) * n_ + u;
      const int value = lower ? 1 : -1;
      for (int c = 0; c < copies; ++c) {
        const int z = sink.level_of(index, c);
        sink.copy_cells(c)[z].update(index, value, powers_.power(index, c));
        top[static_cast<std::size_t>(c)] = std::max(top[static_cast<std::size_t>(c)], z + 1);
      }
    }
  }

  // Suffix sums: level l holds every item whose top level is >= l.
  for (int c = 0; c < copies; ++c) {
    const int used = top[static_cast<std::size_t>(c)];
    OneSparseCell* cells = sink.copy_cells(c);
    for (int l = used - 2; l >= 0; --l) cells[l].add(cells[l + 1]);
    sink.used(c) = used;
  }
}

L0Sampler GraphSketchBuilder::sketch_vertex(const DistributedGraph& dg, Vertex u,
                                            Weight max_weight) const {
  return sketch_part(dg, std::span<const Vertex>(&u, 1), max_weight);
}

L0Sampler GraphSketchBuilder::sketch_part(const DistributedGraph& dg,
                                          std::span<const Vertex> part,
                                          Weight max_weight) const {
  L0Sampler s = empty_sketch();
  accumulate_part(dg, part, max_weight, s);
  return s;
}

std::pair<Vertex, Vertex> GraphSketchBuilder::decode(std::uint64_t index) const {
  KMM_CHECK(index < universe_);
  const auto x = static_cast<Vertex>(index / n_);
  const auto y = static_cast<Vertex>(index % n_);
  KMM_CHECK_MSG(x < y, "decoded edge index is not canonical");
  return {x, y};
}

}  // namespace kmm
