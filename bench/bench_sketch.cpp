// E11 (Lemma 2, Section 2.3): l0-sampler microbenchmarks — update, combine,
// query, power-table construction — plus size/success-rate counters, via
// google-benchmark.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "kmm.hpp"

namespace {

using namespace kmm;

constexpr std::uint64_t kUniverse = 1ULL << 24;  // n = 4096 edge space

void BM_L0Update(benchmark::State& state) {
  L0Sampler s(kUniverse, L0Params::for_universe(kUniverse), 1);
  Rng rng(2);
  std::uint64_t i = 0;
  for (auto _ : state) {
    s.update(rng.next_below(kUniverse), (i++ & 1) ? 1 : -1);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_L0Update);

void BM_L0UpdateWithPowerTables(benchmark::State& state) {
  // The production path: GraphSketchBuilder's power table gives r^i.
  const std::size_t n = 4096;
  Rng rng(3);
  const Graph g = gen::gnm(n, 3 * n, rng);
  const DistributedGraph dg(g, VertexPartition::random(n, 4, 5));
  const GraphSketchBuilder builder(n, 7);
  std::vector<Vertex> part;
  for (Vertex v = 0; v < 64; ++v) part.push_back(v);
  for (auto _ : state) {
    benchmark::DoNotOptimize(builder.sketch_part(dg, part));
  }
  std::size_t edges = 0;
  for (const Vertex v : part) edges += g.degree(v);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * edges));
  state.counters["edges_per_part"] = static_cast<double>(edges);
}
BENCHMARK(BM_L0UpdateWithPowerTables);

// The engine's SS1 kernel as pipeline-gnm runs it (n = 2^13, m = 3n,
// weights in [1, 2^40]): accumulate_part into a pooled sampler, then
// serialize, over 64-vertex parts covering the graph. Arg 0 keeps every
// edge; arg 1 thresholds at the median weight (the MST elimination loop).
// Reports the time per scanned half-edge, threshold-filtered ones included.
void BM_AccumulatePart(benchmark::State& state) {
  const std::size_t n = std::size_t{1} << 13;
  constexpr std::size_t kPart = 64;
  gen::ParGenConfig cfg;
  cfg.seed = 41;
  cfg.threads = 1;
  cfg.weight_limit = Weight{1} << 40;
  const Graph g = gen::gnm_par(n, 3 * n, cfg);
  const DistributedGraph dg(g, VertexPartition::random(n, 16, 43));
  std::vector<Weight> weights;
  for (const auto& e : g.edges()) weights.push_back(e.w);
  std::nth_element(weights.begin(), weights.begin() + weights.size() / 2, weights.end());
  const Weight thr = state.range(0) == 0 ? kNoWeightLimit : weights[weights.size() / 2];

  std::vector<std::vector<Vertex>> parts(n / kPart);
  for (std::size_t v = 0; v < n; ++v) parts[v / kPart].push_back(static_cast<Vertex>(v));

  GraphSketchBuilder builder(n, 47);
  SketchPool pool;
  WordWriter writer;
  std::uint64_t seed = 47;
  for (auto _ : state) {
    builder.rebind(++seed);
    for (const auto& part : parts) {
      pool.release_all();
      L0Sampler& sink = pool.acquire(builder.universe(), builder.params(), builder.seed());
      builder.accumulate_part(dg, part, thr, sink);
      writer.clear();
      sink.serialize(writer);
      benchmark::DoNotOptimize(writer.words().data());
    }
  }
  const auto scanned = static_cast<double>(2 * g.num_edges());
  // Seconds per scanned half-edge; the console prints it as e.g. "35ns".
  state.counters["time_per_edge"] =
      benchmark::Counter(static_cast<double>(state.iterations()) * scanned,
                         benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_AccumulatePart)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_L0Combine(benchmark::State& state) {
  const auto params = L0Params::for_universe(kUniverse);
  L0Sampler a(kUniverse, params, 11), b(kUniverse, params, 11);
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    a.update(rng.next_below(kUniverse), 1);
    b.update(rng.next_below(kUniverse), 1);
  }
  for (auto _ : state) {
    a.add(b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_L0Combine);

void BM_L0Sample(benchmark::State& state) {
  const auto params = L0Params::for_universe(kUniverse);
  Rng rng(17);
  L0Sampler s(kUniverse, params, 19);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    s.update(rng.next_below(kUniverse), 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.sample());
  }
  state.counters["support"] = static_cast<double>(state.range(0));
}
BENCHMARK(BM_L0Sample)->Arg(1)->Arg(64)->Arg(4096);

// Per-iteration power-table refill, the cost the engine pays on the driver
// thread before every elimination iteration: flat in n (it depends on
// log n^2 only).
void BM_BuilderPowerTables(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  GraphSketchBuilder builder(n, 1);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    builder.rebind(++seed);
    benchmark::DoNotOptimize(builder);
  }
  state.counters["n"] = static_cast<double>(n);
}
BENCHMARK(BM_BuilderPowerTables)
    ->Arg(1024)
    ->Arg(4096)
    ->Arg(16384)
    ->Arg(1 << 17)
    ->Arg(1 << 20)
    ->Unit(benchmark::kMicrosecond);

void BM_SerializeRoundtrip(benchmark::State& state) {
  const auto params = L0Params::for_universe(kUniverse);
  Rng rng(23);
  L0Sampler s(kUniverse, params, 29);
  for (int i = 0; i < 500; ++i) s.update(rng.next_below(kUniverse), 1);
  for (auto _ : state) {
    WordWriter w;
    s.serialize(w);
    auto words = std::move(w).take();
    WordReader r(words);
    benchmark::DoNotOptimize(L0Sampler::deserialize(kUniverse, params, 29, r));
  }
  state.counters["wire_bits"] = static_cast<double>(s.wire_bits());
}
BENCHMARK(BM_SerializeRoundtrip);

// The two proxy-side merge paths, head to head: materialize-then-add (the
// pre-registry representation) vs wire-level add_serialized into a pooled
// accumulator (the engine's current path).
void BM_MergeDeserializeAdd(benchmark::State& state) {
  const auto params = L0Params::for_universe(kUniverse);
  Rng rng(37);
  L0Sampler src(kUniverse, params, 41);
  for (int i = 0; i < 500; ++i) src.update(rng.next_below(kUniverse), 1);
  WordWriter w;
  src.serialize(w);
  const auto words = std::move(w).take();
  L0Sampler acc(kUniverse, params, 41);
  for (auto _ : state) {
    WordReader r(words);
    acc.add(L0Sampler::deserialize(kUniverse, params, 41, r));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * words.size()));
}
BENCHMARK(BM_MergeDeserializeAdd);

void BM_MergeAddSerialized(benchmark::State& state) {
  const auto params = L0Params::for_universe(kUniverse);
  Rng rng(37);
  L0Sampler src(kUniverse, params, 41);
  for (int i = 0; i < 500; ++i) src.update(rng.next_below(kUniverse), 1);
  WordWriter w;
  src.serialize(w);
  const auto words = std::move(w).take();
  L0Sampler acc(kUniverse, params, 41);
  for (auto _ : state) {
    WordReader r(words);
    benchmark::DoNotOptimize(acc.add_serialized(r));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * words.size()));
}
BENCHMARK(BM_MergeAddSerialized);

// Success-rate + size report printed once after the timed benchmarks.
void BM_ReportQuality(benchmark::State& state) {
  int failures = 0;
  constexpr int kTrials = 2000;
  Rng rng(31);
  for (int trial = 0; trial < kTrials; ++trial) {
    L0Sampler s(kUniverse, L0Params::for_universe(kUniverse), split(37, trial));
    const int size = 1 + static_cast<int>(rng.next_below(2000));
    for (int i = 0; i < size; ++i) s.update(rng.next_below(kUniverse), 1);
    if (!s.sample().has_value()) ++failures;
  }
  for (auto _ : state) benchmark::DoNotOptimize(failures);
  state.counters["query_failure_rate"] =
      static_cast<double>(failures) / static_cast<double>(kTrials);
  state.counters["sketch_bits"] =
      static_cast<double>(L0Sampler(kUniverse, L0Params::for_universe(kUniverse), 1)
                              .wire_bits());
}
BENCHMARK(BM_ReportQuality)->Iterations(1);

}  // namespace

BENCHMARK_MAIN();
