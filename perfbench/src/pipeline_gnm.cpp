// pipeline-gnm: streamed weighted G(n,m) → stream_ingest → connectivity →
// MST, the paper's headline algorithms on the shard-direct backend.
//
// Chosen because sketch building, wire-level sketch merging and the Borůvka
// protocol (runtime handlers) do most of the work here, ingest is a small
// share, and nothing touches the disk.
//
// A pass runs the pipeline on kInstances independent graphs drawn from the
// seed. How long one graph takes varies by ~15% between seeds (the number of
// sampling iterations is random); summing several keeps that input variance
// from swamping a regression bound.
//
// Passes run on 2 threads, fewer than the 4 vCPUs the benchmark was tuned on:
// with one thread per vCPU, every superstep barrier waits for whichever vCPU
// the host steals, and run-to-run spread grows by about a third.

#include <algorithm>

#include "harness.hpp"

namespace perfbench {

namespace {

using namespace kmm;

constexpr std::size_t kInstances = 4;
constexpr std::size_t kN = std::size_t{1} << 13;
constexpr std::size_t kM = 3 * kN;
constexpr MachineId kK = 16;
constexpr unsigned kThreads = 2;

/// One graph of the pass: its stream parameters and the sequential
/// references the answers are checked against. The global graph itself is
/// dropped after setup, so the passes' heap is the shard-direct pipeline's.
struct Instance {
  gen::ParGenConfig gen;
  std::uint64_t partition_seed = 0;
  std::uint64_t algo_seed = 0;
  std::vector<Vertex> ref_labels;
  std::size_t ref_components = 0;
  Weight ref_msf_weight = 0;
  bool unique_weights = false;
  std::uint64_t fingerprint = 0;
};

using Input = std::vector<Instance>;

Instance make_instance(std::uint64_t seed, Spans* spans) {
  Instance in;
  in.gen.seed = split(seed, 0x9a4f);
  in.gen.threads = kThreads;
  // Weights from a 2^40 range: distinct with overwhelming probability, so
  // the MST is unique (checked on every pass).
  in.gen.weight_limit = Weight{1} << 40;
  in.partition_seed = split(seed, 0x9a97);
  in.algo_seed = split(seed, 0xa190);
  Graph g;
  {
    SpanScope span(spans, "graph.generate");
    g = gen::gnm_par(kN, kM, in.gen);
  }
  {
    SpanScope span(spans, "graph.reference");
    in.ref_labels = ref::component_labels(g);
    in.ref_components = ref::component_count(g);
    in.ref_msf_weight = ref::msf_weight(g);
  }
  in.unique_weights = g.has_unique_weights();
  in.fingerprint = edge_list_fingerprint(g.edges());
  return in;
}

Input setup(std::uint64_t seed, Spans* spans) {
  Input in;
  for (std::size_t i = 0; i < kInstances; ++i) in.push_back(make_instance(split(seed, i), spans));
  return in;
}

std::uint64_t fingerprint(const Input& in) {
  std::uint64_t fp = 0;
  for (const Instance& inst : in) fp = split(fp, inst.fingerprint);
  return fp;
}

/// Per-layer counts of a traced pass, summed over its instances.
struct Layers {
  double ingest_s = 0.0;
  std::uint64_t ingest_peak = 0;
  std::uint64_t edges = 0;
  std::uint64_t conn_rounds = 0, conn_phases = 0, mst_rounds = 0, mst_phases = 0;
  LayerTotals totals;
};

struct Answers {
  BoruvkaResult conn, mst;
  std::uint64_t peak_heap = 0;  // high-water mark while this instance ran
  double wall_s = 0.0;          // ingest → conn → MST, the instance's latency
};

/// Ingest → connectivity → MST on one instance; `layers` (traced pass only)
/// receives its timelines and counts. The instances of a pass run one after
/// another, each freeing its shards before the next starts.
Answers run_instance(const Instance& inst, unsigned threads, Checker& check,
                     const std::string& what, Spans* spans, Layers* layers) {
  MetricsTimeline conn_tl, mst_tl;
  const ObsSink conn_sink{&conn_tl, nullptr}, mst_sink{&mst_tl, nullptr};
  gen::ParGenConfig gcfg = inst.gen;
  gcfg.threads = threads;
  StreamIngestOptions iopts;
  iopts.threads = threads;
  BoruvkaConfig cfg;
  cfg.seed = inst.algo_seed;
  cfg.threads = threads;
  Answers out;

  reset_peak_heap();
  const double t0 = now_s();
  std::optional<DistributedGraph> dg;
  {
    SpanScope span(spans, "cluster.ingest");
    auto ingest = stream_ingest(kN, VertexPartition::random(kN, kK, inst.partition_seed),
                                gen::gnm_stream_source(kN, kM, gcfg), iopts);
    if (!ingest.ok()) {
      check.expect(false, what + ": stream_ingest failed: " + ingest.error().message);
      return out;
    }
    dg.emplace(std::move(ingest).value());
  }
  if (layers != nullptr) {
    layers->ingest_s += now_s() - t0;
    layers->ingest_peak = std::max(layers->ingest_peak, peak_heap_bytes());
    layers->edges += dg->num_edges();
  }

  Cluster conn_cluster(ClusterConfig::for_graph(kN, kK));
  {
    SpanScope span(spans, "core.conn");
    cfg.obs = layers != nullptr ? &conn_sink : nullptr;
    out.conn = connected_components(conn_cluster, *dg, cfg);
  }
  Cluster mst_cluster(ClusterConfig::for_graph(kN, kK));
  {
    SpanScope span(spans, "core.mst");
    cfg.obs = layers != nullptr ? &mst_sink : nullptr;
    out.mst = minimum_spanning_forest(mst_cluster, *dg, cfg);
  }
  if (layers != nullptr) {
    layers->conn_rounds += out.conn.stats.rounds;
    layers->conn_phases += out.conn.phases.size();
    layers->mst_rounds += out.mst.stats.rounds;
    layers->mst_phases += out.mst.phases.size();
    layers->totals.add(conn_tl);
    layers->totals.add(mst_tl);
    layers->totals.add_ledger(conn_cluster.stats());
    layers->totals.add_ledger(mst_cluster.stats());
  }
  out.peak_heap = peak_heap_bytes();
  out.wall_s = now_s() - t0;
  return out;
}

/// One pass over every instance, timed from outside; answers and the
/// ledger are checked after the clock stops.
PassOut run_pass(const Input& in, unsigned threads, Checker& check,
                 std::optional<LedgerPin>& pin, const std::string& what,
                 Spans* spans = nullptr, Layers* layers = nullptr) {
  std::vector<Answers> answers;
  const double t0 = now_s();
  {
    SpanScope span(spans, "pass");
    for (const Instance& inst : in) {
      answers.push_back(run_instance(inst, threads, check, what, spans, layers));
    }
  }
  PassOut out{now_s() - t0, 0.0, {}};
  for (const Answers& a : answers) {
    out.peak_mb = std::max(out.peak_mb, mib(a.peak_heap));
    out.requests_s.push_back(a.wall_s);
  }

  LedgerPin ledger;
  for (std::size_t i = 0; i < in.size(); ++i) {
    const Instance& inst = in[i];
    const Answers& a = answers[i];
    const std::string at = what + " (graph " + std::to_string(i) + ")";
    check.expect(inst.unique_weights, at + ": generated weights are not distinct");
    check.expect(a.conn.converged && a.conn.num_components == inst.ref_components,
                 at + ": connectivity component count");
    check.expect(canonical_labels(a.conn.labels) == inst.ref_labels, at + ": component labels");
    Weight weight = 0;
    const std::vector<WeightedEdge> edges = a.mst.mst_edges();
    for (const WeightedEdge& e : edges) weight += e.w;
    check.expect(a.mst.converged && weight == inst.ref_msf_weight &&
                     edges.size() == kN - inst.ref_components,
                 at + ": MST weight");
    ledger.add(a.conn.stats);
    ledger.add(a.mst.stats);
  }
  pin_ledger(check, pin, ledger, what);
  return out;
}

}  // namespace

void run_pipeline_gnm(const Options& opt, Report& report, Checker& check) {
  Input in;
  std::optional<LedgerPin> pin;
  report.note("input", std::to_string(kInstances) + " x gnm_stream n=" + std::to_string(kN) +
                           " m=" + std::to_string(kM) + " k=" + std::to_string(kK) +
                           " threads=" + std::to_string(kThreads));

  if (!opt.trace) {
    const std::vector<double> setup_s = time_setups([&] { in = setup(opt.seed, nullptr); });
    report.note("input_fingerprint", hex(fingerprint(in)));
    (void)run_pass(in, kThreads, check, pin, "warmup pass");
    const PassSamples samples = measure_passes(
        opt.seconds, [&] { return run_pass(in, kThreads, check, pin, "pass"); });
    samples.report(report, setup_s, *pin);
    return;
  }

  Spans spans;
  report_layer_defaults(report);
  {
    SpanScope span(&spans, "setup");
    in = setup(opt.seed, &spans);
  }
  report.note("input_fingerprint", hex(fingerprint(in)));
  report.set("graph.reference_ms", spans.total_ms("graph.reference"), "ms");
  (void)run_pass(in, kThreads, check, pin, "first pass");
  const PassSamples baseline = measure_passes(
      opt.seconds, [&] { return run_pass(in, kThreads, check, pin, "baseline pass"); });

  Layers layers;
  const PassOut traced = run_pass(in, kThreads, check, pin, "traced pass", &spans, &layers);
  report.set("obs.overhead_pct", (traced.wall_s / median(baseline.wall_s) - 1.0) * 100.0, "%");
  report.set("cluster.ingest_ms", layers.ingest_s * 1e3, "ms");
  report.set("cluster.ingest_peak_mb", mib(layers.ingest_peak), "MB");
  report.set("cluster.ingest_edges_per_s", static_cast<double>(layers.edges) / layers.ingest_s,
             "1/s");
  report.set("core.conn_ms", spans.total_ms("core.conn"), "ms");
  report.set("core.conn_rounds", static_cast<double>(layers.conn_rounds), "count");
  report.set("core.conn_phases", static_cast<double>(layers.conn_phases), "count");
  report.set("core.mst_ms", spans.total_ms("core.mst"), "ms");
  report.set("core.mst_rounds", static_cast<double>(layers.mst_rounds), "count");
  report.set("core.mst_phases", static_cast<double>(layers.mst_phases), "count");
  layers.totals.report(report);

  (void)run_pass(in, 1, check, pin, "threads=1 repeat");
  (void)run_pass(in, 4, check, pin, "threads=4 repeat");
  report_round_slopes(report, check, opt.seed);
  if (!spans.write_json(opt.work_dir + "/spans-pipeline-gnm.json")) {
    std::fprintf(stderr, "perfbench: could not write the span dump\n");
  }
}

}  // namespace perfbench
