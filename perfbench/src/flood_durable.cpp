// flood-durable: min-label flooding (FloodProgram, the checkpointable
// MachineProgram) on a materialized grid, with a silent FaultPlane that
// commits every 16th superstep's checkpoint to a fresh DurableStore with
// fsync on.
//
// Chosen as the write workload: the grid's high diameter gives hundreds of
// supersteps of many small inline messages (delivery-heavy, different
// handler code from the Borůvka engine) plus a stream of multi-megabyte
// durable commits. The sketch layer does no work here.
//
// A pass floods the grid once on each of kInstances random partitions drawn
// from the seed, each flood one request. Several shorter floods rather than
// one large one give each pass a latency distribution of its own, and the
// run a dozen passes instead of a handful, so latency_p95_ms is a median
// (see PassSamples) instead of the slowest of a few passes.

#include <algorithm>
#include <array>
#include <filesystem>
#include <memory>

#include "harness.hpp"

namespace perfbench {

namespace {

using namespace kmm;

constexpr std::size_t kInstances = 4;
constexpr std::size_t kRows = 150, kCols = 150;
constexpr std::size_t kN = kRows * kCols;
constexpr MachineId kK = 16;
constexpr unsigned kThreads = 4;
constexpr unsigned kCheckpointEvery = 16;

/// One partition of the grid and its materialized distribution.
struct Instance {
  std::optional<DistributedGraph> dg;
  std::uint64_t fingerprint = 0;
  std::uint64_t fault_seed = 0;
};

/// The grid, the reference labels and the instances. Held by pointer: each
/// DistributedGraph views the Graph, so neither may move.
struct Input {
  Graph graph;
  std::vector<Vertex> ref_labels;
  std::size_t ref_components = 0;
  std::array<Instance, kInstances> instances;
  std::uint64_t fingerprint = 0;
};

std::unique_ptr<Input> setup(std::uint64_t seed, Spans* spans) {
  auto in = std::make_unique<Input>();
  {
    SpanScope span(spans, "graph.generate");
    in->graph = gen::grid(kRows, kCols);
  }
  {
    SpanScope span(spans, "graph.reference");
    in->ref_labels = ref::component_labels(in->graph);
    in->ref_components = ref::component_count(in->graph);
  }
  // The grid is fixed; the seed picks each instance's random vertex
  // partition, so an instance's identity is (edges, home of every vertex).
  const std::uint64_t edges_fp = edge_list_fingerprint(in->graph.edges());
  for (std::size_t i = 0; i < kInstances; ++i) {
    Instance& inst = in->instances[i];
    const std::uint64_t inst_seed = split(seed, i);
    const VertexPartition partition =
        VertexPartition::random(kN, kK, split(inst_seed, 0x9a97));
    {
      SpanScope span(spans, "cluster.materialize");
      inst.dg.emplace(in->graph, partition);
    }
    std::uint64_t fp = edges_fp;
    for (Vertex v = 0; v < kN; ++v) fp = split(fp, partition.home(v));
    inst.fingerprint = fp;
    inst.fault_seed = split(inst_seed, 0xfa17);
    in->fingerprint = split(in->fingerprint, fp);
  }
  return in;
}

/// Layer counts of a traced pass, summed over its floods.
struct DurableOut {
  std::uint64_t commits = 0;
  std::uint64_t bytes = 0;
  std::uint64_t checkpoints = 0;
  std::uint64_t checkpoint_words = 0;
  LayerTotals totals;
};

/// One flood to convergence on a fresh cluster; with `durable`, through a
/// fresh store in `dir` (removed again after the clock stops). Returns its
/// latency; `dout` (traced pass only) receives its counts and timeline.
double run_flood(const Input& in, const Instance& inst, const std::string& dir, bool durable,
                 unsigned threads, Checker& check, LedgerPin& ledger, const std::string& what,
                 Spans* spans, DurableOut* dout) {
  std::filesystem::remove_all(dir);
  const FaultSchedule quiet(inst.fault_seed);
  FaultPlaneConfig pcfg;
  pcfg.checkpoint_every = kCheckpointEvery;
  Cluster cluster(ClusterConfig::for_graph(kN, kK));
  MetricsTimeline timeline;
  const ObsSink sink{&timeline, nullptr};
  ResumableFloodConfig fcfg;
  fcfg.threads = threads;
  fcfg.obs = dout != nullptr ? &sink : nullptr;
  ResumableFloodResult res;
  std::uint64_t commits = 0, bytes = 0;
  FaultStats fault;

  const double t0 = now_s();
  {
    SpanScope span(spans, "core.flood");
    FaultPlane plane(quiet, pcfg);
    std::optional<DurableStore> store;
    if (durable) {
      store.emplace(DurableStoreConfig{dir, /*fsync=*/true, /*keep_generations=*/3,
                                       inst.fingerprint});
      plane.set_durable_store(&*store);
    }
    fcfg.fault = &plane;
    res = resumable_flood_connectivity(cluster, *inst.dg, fcfg);
    if (store) {
      commits = store->stats().commits;
      bytes = store->stats().bytes_written;
    }
    fault = plane.stats();
  }
  const double wall_s = now_s() - t0;
  std::filesystem::remove_all(dir);

  check.expect(res.converged && res.num_components == in.ref_components,
               what + ": flood component count");
  check.expect(std::equal(res.labels.begin(), res.labels.end(), in.ref_labels.begin(),
                          in.ref_labels.end()),
               what + ": flood labels");
  if (durable) {
    check.expect(commits > 0 && commits == fault.durable_commits, what + ": durable commits");
  }
  ledger.add(res.stats);
  if (dout != nullptr) {
    dout->commits += commits;
    dout->bytes += bytes;
    dout->checkpoints += fault.checkpoints;
    dout->checkpoint_words += fault.checkpoint_words;
    dout->totals.add(timeline);
    dout->totals.add_ledger(cluster.stats());
  }
  return wall_s;
}

/// One flood per instance, one after another. The pass's wall time is the
/// sum of the floods' latencies (store cleanup between them is not timed);
/// its ledger, summed over the floods, must repeat on every pass.
PassOut run_pass(const Input& in, const std::string& dir, bool durable, unsigned threads,
                 Checker& check, std::optional<LedgerPin>& pin, const std::string& what,
                 DurableOut* dout = nullptr, Spans* spans = nullptr) {
  PassOut out;
  LedgerPin ledger;
  for (std::size_t i = 0; i < kInstances; ++i) {
    reset_peak_heap();
    const double latency_s =
        run_flood(in, in.instances[i], dir, durable, threads, check, ledger,
                  what + " (partition " + std::to_string(i) + ")", spans, dout);
    out.peak_mb = std::max(out.peak_mb, mib(peak_heap_bytes()));
    out.wall_s += latency_s;
    out.requests_s.push_back(latency_s);
  }
  pin_ledger(check, pin, ledger, what);
  return out;
}

}  // namespace

void run_flood_durable(const Options& opt, Report& report, Checker& check) {
  std::unique_ptr<Input> in;
  std::optional<LedgerPin> pin;
  const std::string dir = opt.work_dir + "/durable-flood";
  report.note("input", std::to_string(kInstances) + " x grid " + std::to_string(kRows) + "x" +
                           std::to_string(kCols) + " k=" + std::to_string(kK) + " threads=" +
                           std::to_string(kThreads) + " checkpoint_every=" +
                           std::to_string(kCheckpointEvery) + " fsync=1");

  if (!opt.trace) {
    const std::vector<double> setup_s = time_setups([&] {
      in.reset();
      in = setup(opt.seed, nullptr);
    });
    report.note("input_fingerprint", hex(in->fingerprint));
    (void)run_pass(*in, dir, true, kThreads, check, pin, "warmup pass");
    const PassSamples samples = measure_passes(opt.seconds, [&] {
      return run_pass(*in, dir, true, kThreads, check, pin, "pass");
    });
    samples.report(report, setup_s, *pin);
    return;
  }

  Spans spans;
  report_layer_defaults(report);
  {
    SpanScope span(&spans, "setup");
    in = setup(opt.seed, &spans);
  }
  report.note("input_fingerprint", hex(in->fingerprint));
  report.set("graph.reference_ms", spans.total_ms("graph.reference"), "ms");
  report.set("cluster.materialize_ms", spans.total_ms("cluster.materialize"), "ms");
  (void)run_pass(*in, dir, true, kThreads, check, pin, "first pass");
  const PassSamples baseline = measure_passes(opt.seconds, [&] {
    return run_pass(*in, dir, true, kThreads, check, pin, "baseline pass");
  });

  DurableOut dout;
  const PassOut traced =
      run_pass(*in, dir, true, kThreads, check, pin, "traced pass", &dout, &spans);
  report.set("obs.overhead_pct", (traced.wall_s / median(baseline.wall_s) - 1.0) * 100.0, "%");
  report.set("core.flood_ms", spans.total_ms("core.flood"), "ms");
  report.set("durable.commits", static_cast<double>(dout.commits), "count");
  report.set("durable.mb_written", mib(dout.bytes), "MB");
  report.set("fault.checkpoints", static_cast<double>(dout.checkpoints), "count");
  report.set("fault.checkpoint_words", static_cast<double>(dout.checkpoint_words), "count");
  dout.totals.report(report);

  // Per-commit cost: the same floods with the store detached, against the
  // untraced median with it.
  std::optional<LedgerPin> detached_pin;
  const PassOut detached = run_pass(*in, dir, false, kThreads, check, detached_pin,
                                    "store-detached pass");
  report.set("durable.commit_ms",
             dout.commits == 0 ? 0.0
                               : (median(baseline.wall_s) - detached.wall_s) * 1e3 /
                                     static_cast<double>(dout.commits),
             "ms");
  (void)run_pass(*in, dir, true, 1, check, pin, "threads=1 repeat");
  report_round_slopes(report, check, opt.seed);
  if (!spans.write_json(opt.work_dir + "/spans-flood-durable.json")) {
    std::fprintf(stderr, "perfbench: could not write the span dump\n");
  }
}

}  // namespace perfbench
