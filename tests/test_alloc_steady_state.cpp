// Tier-1 counting-allocator proof of the allocation-free sketch plane.
//
// A standalone binary (not part of kmm_tests): it replaces the global
// operator new/delete with the counting hook from bench/alloc_counter.hpp,
// which must not leak into the GoogleTest suite, so it registers with ctest
// as its own test with a plain main().
//
// What it asserts: one steady-state Borůvka elimination iteration — builder
// rebind, part sketching into a pooled accumulator, serialization into a
// reused WordWriter, proxy-side wire-level merging into pooled sums behind
// a LabelRegistry, and the sample/is_zero state transitions — performs ZERO heap allocations once the capacity-retaining
// structures are warm. This is the compute-plane analogue of the message
// plane's 0 allocs/superstep (PR 3); bench_boruvka_hotpath reports the same
// quantity with throughput numbers against the checked-in baseline.
//
// It also pins the durable commit: a warm FaultPlane + DurableStore commit
// performs the same small, constant number of allocations (path strings)
// whatever the size of the inbox window it encodes.

#include <stdlib.h>  // mkdtemp

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "kmm.hpp"

namespace {

using namespace kmm;
using kmmbench::alloc_count;

constexpr std::size_t kN = 512;      // vertices (universe kN^2)
constexpr std::size_t kLabels = 16;  // active components per iteration
constexpr std::size_t kParts = 4;    // part-sketches per label
constexpr int kWarmupIters = 3;
constexpr int kMeasureIters = 8;

int failures = 0;

#define EXPECT_ZERO(expr, what)                                                      \
  do {                                                                               \
    const auto v = (expr);                                                           \
    if (v != 0) {                                                                    \
      std::printf("FAIL: %s = %llu, expected 0\n", what,                             \
                  static_cast<unsigned long long>(v));                               \
      ++failures;                                                                    \
    }                                                                                \
  } while (0)

/// One elimination iteration over pre-partitioned component parts: the
/// home-side sketch+serialize half and the proxy-side merge+transition half,
/// exactly the containers and calls the engine's hot path uses.
void run_iteration(GraphSketchBuilder& builder, const DistributedGraph& dg,
                   std::uint64_t seed, const std::vector<std::vector<Vertex>>& parts,
                   SketchPool& home_pool, SketchPool& proxy_pool, WordWriter& writer,
                   std::vector<std::vector<std::uint64_t>>& wire,
                   LabelRegistry<std::uint32_t>& sums, std::uint64_t* sink) {
  builder.rebind(seed);

  // Home side: sketch each part into a pooled accumulator, serialize into
  // the reused writer, "send" by copying into the wire buffers (stand-in
  // for the already allocation-free message plane; buffers are reserved to
  // the worst-case compact sketch size, since payload lengths vary).
  for (std::size_t label = 0; label < kLabels; ++label) {
    for (std::size_t p = 0; p < kParts; ++p) {
      home_pool.release_all();
      L0Sampler& sketch =
          home_pool.acquire(builder.universe(), builder.params(), builder.seed());
      builder.accumulate_part(dg, parts[label * kParts + p], kNoWeightLimit, sketch);
      writer.clear();
      writer.u64(label);
      sketch.serialize(writer);
      auto& slot = wire[label * kParts + p];
      slot.assign(writer.words().begin(), writer.words().end());
    }
  }

  // Proxy side: wire-level merge into pooled sums, then transitions.
  sums.clear();
  proxy_pool.release_all();
  for (const auto& msg : wire) {
    WordReader r(msg);
    const Label label = r.u64();
    bool created = false;
    std::uint32_t& idx = sums.get_or_create(label, created);
    if (created) {
      idx = proxy_pool.acquire_index(builder.universe(), builder.params(), builder.seed());
    }
    if (!proxy_pool.at(idx).add_serialized(r)) {
      std::printf("FAIL: sketch payload rejected by add_serialized\n");
      ++failures;
    }
  }
  sums.for_each_sorted([&](Label label, std::uint32_t idx) {
    L0Sampler& sum = proxy_pool.at(idx);
    if (sum.is_zero()) return;
    if (const auto rec = sum.sample(builder.powers())) *sink += rec->index + label;
  });
}

/// Allocations per durable commit, warm, for a flood on a rows x rows grid
/// (fsync off). The flood runs a few supersteps first so the cluster holds
/// a real inbox window; then begin_step/end_step are driven directly at
/// cadence 1, so each iteration is one snapshot + one commit of that same
/// window (with pruning once three generations exist).
std::uint64_t durable_commit_allocs(std::size_t rows, std::size_t* inbox_messages) {
  constexpr MachineId kMachines = 8;
  constexpr int kWarmCommits = 6;
  constexpr int kMeasuredCommits = 16;
  const std::size_t n = rows * rows;
  const Graph g = gen::grid(rows, rows);
  const DistributedGraph dg(g, VertexPartition::random(n, kMachines, 21));
  Cluster cluster(ClusterConfig::for_graph(n, kMachines));
  FloodProgram program(dg, kMachines);
  {
    Runtime rt(cluster);
    for (int s = 0; s < 3; ++s) (void)rt.step(program);
  }
  *inbox_messages = 0;
  for (MachineId m = 0; m < kMachines; ++m) *inbox_messages += cluster.inbox(m).size();

  std::string tmpl = (std::filesystem::temp_directory_path() / "kmm_alloc_XXXXXX").string();
  const char* dir = ::mkdtemp(tmpl.data());
  if (dir == nullptr) {
    std::printf("FAIL: mkdtemp\n");
    ++failures;
    return 0;
  }
  std::uint64_t allocs = 0;
  {
    DurableStore store({dir, /*fsync=*/false, /*keep_generations=*/3, 0});
    const FaultSchedule quiet(1);
    FaultPlaneConfig pcfg;
    pcfg.checkpoint_every = 1;
    FaultPlane plane(quiet, pcfg);
    plane.set_durable_store(&store);
    for (int i = 0; i < kWarmCommits; ++i) {
      (void)plane.begin_step(cluster, program);
      plane.end_step();
    }
    const auto a0 = alloc_count();
    for (int i = 0; i < kMeasuredCommits; ++i) {
      (void)plane.begin_step(cluster, program);
      plane.end_step();
    }
    allocs = alloc_count() - a0;
    if (plane.stats().durable_commits != kWarmCommits + kMeasuredCommits) {
      std::printf("FAIL: expected one durable commit per driven step\n");
      ++failures;
    }
  }
  std::filesystem::remove_all(dir);
  return allocs / kMeasuredCommits;
}

}  // namespace

int main() {
  Rng rng(5);
  const Graph g = gen::gnm(kN, 3 * kN, rng);
  const DistributedGraph dg(g, VertexPartition::random(kN, 4, 7));

  // Disjoint vertex slices standing in for component parts.
  std::vector<std::vector<Vertex>> parts(kLabels * kParts);
  const std::size_t chunk = kN / parts.size();
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = 0; j < chunk; ++j) {
      parts[i].push_back(static_cast<Vertex>(i * chunk + j));
    }
  }

  GraphSketchBuilder builder(kN, /*seed=*/1);
  SketchPool home_pool, proxy_pool;
  WordWriter writer;
  std::vector<std::vector<std::uint64_t>> wire(kLabels * kParts);
  const std::size_t max_message_words = 1 + builder.empty_sketch().max_wire_words();
  for (auto& slot : wire) slot.reserve(max_message_words);
  LabelRegistry<std::uint32_t> sums;
  sums.reset_universe(kLabels);
  std::uint64_t sink = 0;

  for (int it = 0; it < kWarmupIters; ++it) {
    run_iteration(builder, dg, 100 + static_cast<std::uint64_t>(it), parts, home_pool,
                  proxy_pool, writer, wire, sums, &sink);
  }

  const auto a0 = alloc_count();
  for (int it = 0; it < kMeasureIters; ++it) {
    run_iteration(builder, dg, 200 + static_cast<std::uint64_t>(it), parts, home_pool,
                  proxy_pool, writer, wire, sums, &sink);
  }
  const auto steady_allocs = alloc_count() - a0;
  EXPECT_ZERO(steady_allocs, "steady-state sketch-plane allocations");
  std::printf("sketch plane: %d warm iterations, %llu allocations (sink=%llu)\n",
              kMeasureIters, static_cast<unsigned long long>(steady_allocs),
              static_cast<unsigned long long>(sink));

  // Full-engine regression guard: the registry/pool representation must
  // keep allocations-per-superstep far below the pre-registry ~290 (see
  // bench/baselines/BENCH_boruvka_hotpath.pre-registry.json). The bound is
  // loose — it catches representation regressions, not stdlib noise.
  {
    Rng grng(17);
    const Graph eg = gen::gnm(600, 1800, grng);
    Cluster cluster(ClusterConfig::for_graph(600, 8));
    const DistributedGraph edg(eg, VertexPartition::random(600, 8, 19));
    BoruvkaConfig cfg;
    cfg.seed = 29;
    const auto e0 = alloc_count();
    const auto res = connected_components(cluster, edg, cfg);
    const auto engine_allocs = alloc_count() - e0;
    const double per_superstep =
        static_cast<double>(engine_allocs) / static_cast<double>(res.stats.supersteps);
    std::printf("full engine: %llu allocations / %llu supersteps = %.1f per superstep\n",
                static_cast<unsigned long long>(engine_allocs),
                static_cast<unsigned long long>(res.stats.supersteps), per_superstep);
    if (per_superstep > 100.0) {
      std::printf("FAIL: allocations per superstep %.1f > 100 — registry/pool "
                  "representation regressed\n",
                  per_superstep);
      ++failures;
    }
  }

  // Observability-plane steady state. Three claims, measured on the same
  // warmed runtime loop (a charged all-to-successor ring superstep):
  //   1. sinks disabled: the obs seam adds ZERO allocations per superstep
  //      on top of the allocation-free message plane;
  //   2. sinks attached (summarized timeline, pre-reserved; warm trace
  //      rings): recording is also allocation-free per superstep;
  //   3. with the alloc-count source registered, the timeline's own allocs
  //      column agrees — every steady-state row records 0.
  {
    obs::set_alloc_count_source(&kmmbench::alloc_count);
    constexpr MachineId kMachines = 8;
    constexpr int kSteps = 64;
    const auto ring_step = [](Runtime& rt) {
      rt.step([](MachineId self, std::span<const Message>, Outbox& out) {
        out.send((self + 1) % kMachines, 1, {std::uint64_t{self}}, 64);
      });
    };

    for (const unsigned threads : {1u, 4u}) {
      // Sinks disabled.
      {
        Cluster cluster(ClusterConfig{kMachines, 64});
        Runtime rt(cluster, RuntimeConfig{threads});
        for (int i = 0; i < 4; ++i) ring_step(rt);  // warm pool + arenas
        const auto b0 = alloc_count();
        for (int i = 0; i < kSteps; ++i) ring_step(rt);
        char what[96];
        std::snprintf(what, sizeof what,
                      "sinks-off runtime allocations (threads=%u)", threads);
        EXPECT_ZERO(alloc_count() - b0, what);
      }

      // Sinks attached.
      {
        Cluster cluster(ClusterConfig{kMachines, 64});
        MetricsTimelineConfig tcfg;
        tcfg.full_traffic_steps = 0;  // summarized rows: O(top_traffic) each
        MetricsTimeline timeline(tcfg);
        timeline.reserve(1024, kMachines);
        TraceRecorder trace;  // rings pre-reserved at construction
        const ObsSink sink{&timeline, &trace};
        Runtime rt(cluster, RuntimeConfig{threads, &sink});
        for (int i = 0; i < 4; ++i) ring_step(rt);
        const std::size_t warm_rows = timeline.size();
        const auto b0 = alloc_count();
        for (int i = 0; i < kSteps; ++i) ring_step(rt);
        char what[96];
        std::snprintf(what, sizeof what,
                      "sinks-on runtime allocations (threads=%u)", threads);
        EXPECT_ZERO(alloc_count() - b0, what);
        for (std::size_t i = warm_rows; i < timeline.size(); ++i) {
          EXPECT_ZERO(timeline.row(i).allocs, "timeline row alloc column");
        }
      }
    }
    obs::set_alloc_count_source(nullptr);
    std::printf("obs plane: steady-state supersteps allocation-free with sinks "
                "off and on\n");
  }

  // Durable commit: the frame is encoded straight from the checkpoint
  // store, ledger and inboxes into a retained buffer, so allocations per
  // commit must not grow with the inbox window.
  {
    std::size_t small_inbox = 0, large_inbox = 0;
    const std::uint64_t small = durable_commit_allocs(24, &small_inbox);
    const std::uint64_t large = durable_commit_allocs(72, &large_inbox);
    std::printf("durable commit: %llu allocations/commit at %zu inbox messages, %llu at %zu\n",
                static_cast<unsigned long long>(small), small_inbox,
                static_cast<unsigned long long>(large), large_inbox);
    if (large_inbox < 4 * small_inbox) {
      std::printf("FAIL: the larger grid should hold a much larger inbox window\n");
      ++failures;
    }
    if (small != large || large > 16) {
      std::printf("FAIL: allocations per durable commit must be one small constant\n");
      ++failures;
    }
  }

  if (failures == 0) std::printf("PASS\n");
  return failures == 0 ? 0 : 1;
}
