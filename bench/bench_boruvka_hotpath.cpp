// Borůvka compute-plane hotpath: the per-iteration sketch work the
// bandwidth model treats as free but wall-clock does not.
//
// Two sections:
//
//  1. sketch-merge plane — a synthetic proxy inbox: L component labels, each
//     receiving one serialized part-sketch from each of `kParts` machines per
//     iteration. The merge loop is exactly the engine's proxy-side summation
//     (label lookup -> accumulator -> cell-wise add of the serialized words);
//     reported as merge words/s and allocations/iteration, measured after a
//     warmup so capacity-retaining structures are warm. Sketches travel in
//     the compact wire form (used prefixes only, sketch/l0_sampler.hpp), so
//     words/s counts payload words actually merged; wall_ms is the figure
//     comparable across wire formats.
//
//  2. full engine — connectivity and MST runs with allocations/superstep,
//     the end-to-end number the registry/pool rework moves.
//
// Compare against bench/baselines/BENCH_boruvka_hotpath.pre-registry.json
// (captured from the std::map + per-message-deserialize representation).

#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_common.hpp"

namespace {

using namespace kmm;
using namespace kmmbench;

constexpr std::size_t kSketchN = 2048;   // vertex count -> universe n^2
constexpr std::size_t kLabels = 64;      // distinct component labels per iteration
constexpr std::size_t kParts = 8;        // part-sketches per label (machines)
constexpr std::size_t kWarmupIters = 4;
constexpr std::size_t kMeasureIters = 64;

struct MergeRow {
  double wall_ms = 0.0;
  double words_per_sec = 0.0;
  double allocs_per_iteration = 0.0;
  std::uint64_t checksum = 0;  // keeps the merged sums observable
};

/// Build the synthetic serialized inbox once: kLabels * kParts messages of
/// [label, cells...] words, from real part sketches of a gnm graph.
std::vector<std::vector<std::uint64_t>> build_inbox(const GraphSketchBuilder& builder,
                                                    const DistributedGraph& dg) {
  std::vector<std::vector<std::uint64_t>> inbox;
  std::vector<Vertex> part;
  for (std::size_t label = 0; label < kLabels; ++label) {
    for (std::size_t p = 0; p < kParts; ++p) {
      part.clear();
      // Disjoint vertex slices so per-label sums model one component's parts.
      const std::size_t base = (label * kParts + p) * (kSketchN / (kLabels * kParts));
      for (std::size_t j = 0; j < kSketchN / (kLabels * kParts); ++j) {
        part.push_back(static_cast<Vertex>(base + j));
      }
      const L0Sampler sketch = builder.sketch_part(dg, part);
      WordWriter w;
      w.u64(label);
      sketch.serialize(w);
      inbox.push_back(std::move(w).take());
    }
  }
  return inbox;
}

/// One proxy-side merge pass over the inbox — the registry representation:
/// pooled accumulators behind a flat LabelRegistry, each incoming sketch's
/// cells added wire-level via add_serialized (no per-message deserialize).
MergeRow run_merge(const GraphSketchBuilder& builder,
                   const std::vector<std::vector<std::uint64_t>>& inbox) {
  MergeRow row;
  std::size_t total_words = 0;
  for (const auto& msg : inbox) total_words += msg.size() - 1;

  LabelRegistry<std::uint32_t> sums;
  sums.reset_universe(kLabels);
  SketchPool pool;

  const auto iteration = [&]() {
    sums.clear();
    pool.release_all();
    for (const auto& msg : inbox) {
      WordReader r(msg);
      const Label label = r.u64();
      bool created = false;
      std::uint32_t& idx = sums.get_or_create(label, created);
      if (created) {
        idx = pool.acquire_index(builder.universe(), builder.params(), builder.seed());
      }
      KMM_CHECK(pool.at(idx).add_serialized(r));
    }
    sums.for_each_sorted([&](Label label, std::uint32_t idx) {
      row.checksum += pool.at(idx).is_zero() ? 0 : 1 + label;
    });
  };

  for (std::size_t i = 0; i < kWarmupIters; ++i) iteration();
  const auto a0 = alloc_count();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kMeasureIters; ++i) iteration();
  const auto t1 = std::chrono::steady_clock::now();
  row.allocs_per_iteration =
      static_cast<double>(alloc_count() - a0) / static_cast<double>(kMeasureIters);
  row.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  row.words_per_sec = static_cast<double>(total_words * kMeasureIters) /
                      (row.wall_ms / 1000.0);
  return row;
}

}  // namespace

int main() {
  banner("Boruvka compute-plane hotpath",
         "the k-machine model charges only the wire (Section 1.1); the proxy-side "
         "sketch summation must therefore be allocation-free and memory-bound");

  BenchJson json("boruvka_hotpath");

  // Section 1: sketch-merge plane.
  Rng rng(5);
  const Graph g = gen::gnm(kSketchN, 3 * kSketchN, rng);
  const DistributedGraph dg(g, VertexPartition::random(kSketchN, kParts, 7));
  const GraphSketchBuilder builder(kSketchN, /*seed=*/11);
  const auto inbox = build_inbox(builder, dg);
  // Compact sketch payloads vary in length: report the mean (label excluded).
  std::size_t words_per_msg = 0;
  for (const auto& msg : inbox) words_per_msg += msg.size() - 1;
  words_per_msg /= inbox.size();

  const auto merge = run_merge(builder, inbox);
  std::printf("\nsketch-merge plane: %zu labels x %zu parts, %zu words/sketch\n", kLabels,
              kParts, words_per_msg);
  std::printf("%12s %16s %18s %10s\n", "wall_ms", "merge_words/s", "allocs/iteration",
              "checksum");
  std::printf("%12.2f %16.0f %18.1f %10llu\n", merge.wall_ms, merge.words_per_sec,
              merge.allocs_per_iteration,
              static_cast<unsigned long long>(merge.checksum));
  {
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"section\": \"sketch_merge\", \"labels\": %zu, \"parts\": %zu, "
                  "\"words_per_sketch\": %zu, \"iterations\": %zu, \"wall_ms\": %.3f, "
                  "\"merge_words_per_sec\": %.0f, \"allocs_per_iteration\": %.1f}",
                  kLabels, kParts, words_per_msg, kMeasureIters, merge.wall_ms,
                  merge.words_per_sec, merge.allocs_per_iteration);
    json.record_raw(buf);
  }

  // Section 2: full engine, allocations per superstep.
  std::printf("\nfull engine (k=8, threads=1)\n");
  std::printf("%14s %6s %8s %10s %9s %14s\n", "algo", "n", "rounds", "supersteps",
              "wall_ms", "allocs/sstep");
  struct EngineCase {
    const char* algo;
    std::size_t n, m;
  };
  for (const EngineCase ec : {EngineCase{"connectivity", 1200, 3600},
                              EngineCase{"mst", 1200, 3600}}) {
    Rng grng(17);
    Graph eg = gen::gnm(ec.n, ec.m, grng);
    if (ec.algo[0] == 'm') eg = weighted_unique(std::move(eg), 23);
    const auto timed = ec.algo[0] == 'm' ? run_mst_timed(eg, 8, 29)
                                         : run_connectivity_timed(eg, 8, 29);
    const double aps = allocs_per_superstep(timed, timed.result.stats.supersteps);
    std::printf("%14s %6zu %8llu %10llu %9.1f %14.1f\n", ec.algo, ec.n,
                static_cast<unsigned long long>(timed.result.stats.rounds),
                static_cast<unsigned long long>(timed.result.stats.supersteps),
                timed.wall_ms, aps);
    char buf[384];
    std::snprintf(buf, sizeof(buf),
                  "{\"section\": \"engine\", \"algo\": \"%s\", \"n\": %zu, \"m\": %zu, "
                  "\"k\": 8, \"threads\": 1, \"rounds\": %llu, \"supersteps\": %llu, "
                  "\"wall_ms\": %.3f, \"allocs_per_superstep\": %.1f, "
                  "\"allocs_total\": %llu}",
                  ec.algo, ec.n, ec.m,
                  static_cast<unsigned long long>(timed.result.stats.rounds),
                  static_cast<unsigned long long>(timed.result.stats.supersteps),
                  timed.wall_ms, aps, static_cast<unsigned long long>(timed.allocs));
    json.record_raw(buf);
  }
  return 0;
}
