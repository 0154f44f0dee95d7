// serve-mix: a ClusterService over a materialized connected G(n,m) answering
// every QueryKind for two closed-loop clients.
//
// Chosen because many short queries make per-query cluster setup, superstep
// dispatch and shared-pool multiplexing dominate, and because the Theorem 4
// verifiers (and min-cut, 2-edge-connectivity, leader election) run only
// here. Each client submits its next query only after the previous reply,
// cycling through all 15 kinds from a different starting kind; a pass is one
// such cycle by each client (30 queries).

#include <array>
#include <cmath>
#include <memory>
#include <thread>

#include "harness.hpp"

namespace perfbench {

namespace {

using namespace kmm;

// n is kept where the dense Stoer–Wagner reference (O(n^3)) stays a small
// share of setup.
constexpr std::size_t kN = 1024;
constexpr std::size_t kM = 3 * kN;
constexpr MachineId kK = 8;
constexpr unsigned kWorkers = 2;
constexpr unsigned kQueryThreads = 2;
constexpr int kClients = 2;
constexpr std::size_t kKinds = 15;
/// At least 210 queries per run. latency_p95_ms is the median over windows
/// of this many consecutive passes (210 queries, ten above each window's
/// p95) of the window's p95, so an episode of host contention that slows a
/// few windows moves it no more than it moves the median.
constexpr int kMinServePasses = 7;

constexpr std::array<QueryKind, kKinds> kKindOrder = {
    QueryKind::kConnectivity,          QueryKind::kMst,
    QueryKind::kMinCut,                QueryKind::kTwoEdge,
    QueryKind::kFlooding,              QueryKind::kRefereeConnectivity,
    QueryKind::kLeaderElection,        QueryKind::kVerifySpanningSubgraph,
    QueryKind::kVerifyCut,             QueryKind::kVerifyStConnectivity,
    QueryKind::kVerifyEdgeOnAllPaths,  QueryKind::kVerifyStCut,
    QueryKind::kVerifyCycle,           QueryKind::kVerifyECycle,
    QueryKind::kVerifyBipartite,
};

ServiceConfig service_config(unsigned workers, unsigned query_threads, bool timelines) {
  ServiceConfig cfg;
  cfg.k = kK;
  cfg.workers = workers;
  cfg.query_threads = query_threads;
  cfg.record_timelines = timelines;
  return cfg;
}

/// Graph, service and the reference answer of every request. Held by
/// pointer: the service borrows the DistributedGraph, which views the Graph.
/// Members are destroyed bottom-up, so the service goes first.
struct Input {
  Graph graph;
  std::optional<DistributedGraph> dg;
  std::array<QueryRequest, kKinds> requests;
  std::array<bool, kKinds> ref_verdict{};  // verifier kinds only
  std::size_t ref_components = 0;
  std::uint64_t ref_min_cut = 0;  // Stoer–Wagner on the unweighted graph
  bool ref_two_edge = false;
  std::uint64_t fingerprint = 0;
  std::unique_ptr<ClusterService> service;
};

std::vector<std::pair<Vertex, Vertex>> incident_edges(const Graph& g, Vertex v) {
  std::vector<std::pair<Vertex, Vertex>> out;
  for (const HalfEdge& he : g.neighbors(v)) out.emplace_back(v, he.to);
  return out;
}

/// Requests with operands drawn from the graph, and their reference answers.
void build_requests(Input& in, std::uint64_t seed) {
  const Graph& g = in.graph;
  Rng rng(split(seed, 0x0be7));
  const auto s = static_cast<Vertex>(rng.next_below(kN));
  auto t = static_cast<Vertex>(rng.next_below(kN - 1));
  if (t >= s) ++t;
  const WeightedEdge e = g.edges()[rng.next_below(g.num_edges())];
  const auto cut_vertex = static_cast<Vertex>(rng.next_below(kN));
  const std::vector<WeightedEdge> msf = ref::minimum_spanning_forest(g);

  for (std::size_t i = 0; i < kKinds; ++i) {
    QueryRequest& req = in.requests[i];
    req.kind = kKindOrder[i];
    req.seed = split(seed, 0x9e00 + i);
    bool& verdict = in.ref_verdict[i];
    switch (req.kind) {
      case QueryKind::kVerifySpanningSubgraph:
        for (const WeightedEdge& f : msf) req.edges.emplace_back(f.u, f.v);
        verdict = ref::is_connected(Graph(kN, msf));
        break;
      case QueryKind::kVerifyCut:
        req.edges = incident_edges(g, cut_vertex);
        verdict = ref::component_count(g.without_edges(req.edges)) > in.ref_components;
        break;
      case QueryKind::kVerifyStConnectivity:
        req.s = s;
        req.t = t;
        verdict = ref::same_component(g, s, t);
        break;
      case QueryKind::kVerifyEdgeOnAllPaths:
        req.s = s;
        req.t = t;
        req.x = e.u;
        req.y = e.v;
        verdict = !ref::same_component(g.without_edges({{e.u, e.v}}), s, t);
        break;
      case QueryKind::kVerifyStCut:
        req.s = s;
        req.t = t;
        req.edges = incident_edges(g, s);
        verdict = !ref::same_component(g.without_edges(req.edges), s, t);
        break;
      case QueryKind::kVerifyCycle:
        verdict = ref::has_cycle(g);
        break;
      case QueryKind::kVerifyECycle:
        req.x = e.u;
        req.y = e.v;
        verdict = ref::edge_on_cycle(g, e.u, e.v);
        break;
      case QueryKind::kVerifyBipartite:
        verdict = ref::is_bipartite(g);
        break;
      default:
        break;
    }
  }
}

std::unique_ptr<Input> setup(std::uint64_t seed, Spans* spans) {
  auto in = std::make_unique<Input>();
  Graph plain;
  const VertexPartition partition = VertexPartition::random(kN, kK, split(seed, 0x9a97));
  {
    SpanScope span(spans, "graph.generate");
    Rng rng(split(seed, 0x5e7e));
    plain = gen::connected_gnm(kN, kM, rng);
    // Distinct weights make the MST unique; min-cut counts edges, so its
    // reference runs on the unweighted copy.
    in->graph = with_unique_weights(with_random_weights(plain, rng));
  }
  {
    SpanScope span(spans, "cluster.materialize");
    in->dg.emplace(in->graph, partition);
  }
  {
    SpanScope span(spans, "graph.reference");
    in->ref_components = ref::component_count(in->graph);
    in->ref_min_cut = ref::stoer_wagner_min_cut(plain);
    in->ref_two_edge = ref::is_two_edge_connected(in->graph);
    build_requests(*in, seed);
  }
  {
    SpanScope span(spans, "serve.start");
    in->service = std::make_unique<ClusterService>(
        *in->dg, service_config(kWorkers, kQueryThreads, false));
  }
  std::uint64_t fp = edge_list_fingerprint(in->graph.edges());
  for (Vertex v = 0; v < kN; ++v) fp = split(fp, partition.home(v));
  in->fingerprint = fp;
  return in;
}

/// Does `r` (the answer to request i) agree with the sequential reference?
bool answer_ok(const Input& in, std::size_t i, const QueryResult& r) {
  const std::size_t comps = in.ref_components;
  switch (r.kind) {
    case QueryKind::kConnectivity:
      return r.value == comps && r.verdict == (comps <= 1);
    case QueryKind::kMst:
      return r.value == kN - comps && r.verdict;
    case QueryKind::kMinCut: {
      // Theorem 3's O(log n) band, with the test suite's constants.
      const double logn = std::log2(static_cast<double>(kN) + 2);
      const double ratio = static_cast<double>(r.value) / static_cast<double>(in.ref_min_cut);
      return r.verdict == (comps == 1) && ratio >= 1.0 / (8.0 * logn) && ratio <= 8.0 * logn;
    }
    case QueryKind::kTwoEdge:
      return r.verdict == in.ref_two_edge;
    case QueryKind::kFlooding:
    case QueryKind::kRefereeConnectivity:
      return r.value == comps;
    case QueryKind::kLeaderElection:
      return r.value < kK;
    default:
      return r.verdict == in.ref_verdict[i];
  }
}

struct Sample {
  std::size_t request = 0;
  std::uint64_t id = 0;
  double sent_s = 0.0;  // submit time on the steady clock
  double latency_s = 0.0;
  QueryOutcome outcome;
};

struct ServePass {
  double wall_s = 0.0;
  double peak_mb = 0.0;
  std::vector<Sample> samples;
};

/// One pass: each closed-loop client runs the 15-kind cycle once.
ServePass run_pass(const Input& in, ClusterService& service, Checker& check,
                   std::optional<LedgerPin>& pin, const std::string& what,
                   Spans* spans = nullptr) {
  std::array<std::vector<Sample>, kClients> per_client;
  ServePass pass;
  int pass_span = -1;
  reset_peak_heap();
  const double t0 = now_s();
  {
    SpanScope span(spans, "serve.pass");
    if (spans != nullptr) pass_span = spans->last();
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t q = 0; q < kKinds; ++q) {
          const std::size_t i = (q + static_cast<std::size_t>(c) * 7) % kKinds;
          const double sent = now_s();
          const auto ticket = service.submit(in.requests[i]);
          const QueryOutcome& outcome = ticket->wait();
          per_client[static_cast<std::size_t>(c)].push_back(
              Sample{i, ticket->id(), sent, now_s() - sent, outcome});
        }
      });
    }
  }
  pass.wall_s = now_s() - t0;
  pass.peak_mb = mib(peak_heap_bytes());

  LedgerPin ledger;
  for (auto& client : per_client) {
    for (Sample& s : client) {
      const char* kind = query_kind_name(in.requests[s.request].kind);
      // Client threads time their own calls; the span recorder is filled
      // here, on the main thread.
      if (spans != nullptr) {
        spans->add(std::string("serve.query.") + kind, pass_span, s.sent_s,
                   s.sent_s + s.latency_s);
      }
      if (!s.outcome.ok()) {
        check.expect(false, what + ": " + kind + " failed: " + s.outcome.error().message);
        continue;
      }
      check.expect(answer_ok(in, s.request, s.outcome.value()), what + ": " + kind + " answer");
      ledger.add(s.outcome.value().ledger);
      pass.samples.push_back(std::move(s));
    }
  }
  pin_ledger(check, pin, ledger, what);
  return pass;
}

}  // namespace

void run_serve_mix(const Options& opt, Report& report, Checker& check) {
  std::unique_ptr<Input> in;
  std::optional<LedgerPin> pin;
  report.note("input", "connected_gnm n=" + std::to_string(kN) + " m=" + std::to_string(kM) +
                           " k=" + std::to_string(kK) + " workers=" + std::to_string(kWorkers) +
                           " query_threads=" + std::to_string(kQueryThreads) +
                           " closed_loop_clients=" + std::to_string(kClients));

  if (!opt.trace) {
    const std::vector<double> setup_s = time_setups([&] {
      in.reset();
      in = setup(opt.seed, nullptr);
    });
    report.note("input_fingerprint", hex(in->fingerprint));
    (void)run_pass(*in, *in->service, check, pin, "warmup pass");
    std::vector<double> wall, peak, latency, window, window_p95;
    double busy_s = 0.0;
    const double t0 = now_s();
    while (static_cast<int>(wall.size()) < kMinServePasses || now_s() - t0 < opt.seconds) {
      const ServePass pass = run_pass(*in, *in->service, check, pin, "pass");
      wall.push_back(pass.wall_s);
      peak.push_back(pass.peak_mb);
      busy_s += pass.wall_s;
      for (const Sample& s : pass.samples) {
        latency.push_back(s.latency_s);
        window.push_back(s.latency_s);
      }
      if (wall.size() % kMinServePasses == 0) {
        window_p95.push_back(quantile(window, 0.95));
        window.clear();
      }
      std::printf("pass %zu: %.6f s, peak heap %.3f MB\n", wall.size(), pass.wall_s,
                  pass.peak_mb);
    }
    report.note("latency_samples", std::to_string(latency.size()));
    report.note("latency_p95_windows", std::to_string(window_p95.size()));
    report.set("setup_s", median(setup_s), "s");
    report.set("wall_s", median(wall), "s");
    report.set("peak_heap_mb", median(peak), "MB");
    report.set("sim_rounds", static_cast<double>(pin->rounds), "count");
    report.set("sim_bits", static_cast<double>(pin->bits), "count");
    report.set("qps", static_cast<double>(latency.size()) / busy_s, "1/s");
    report.set("latency_p50_ms", median(latency) * 1e3, "ms");
    report.set("latency_p95_ms", median(window_p95) * 1e3, "ms");
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

  std::vector<ServePass> passes;
  passes.push_back(run_pass(*in, *in->service, check, pin, "first pass"));
  std::vector<double> baseline;
  const double t0 = now_s();
  while (static_cast<int>(baseline.size()) < kMinServePasses || now_s() - t0 < opt.seconds) {
    passes.push_back(run_pass(*in, *in->service, check, pin, "baseline pass"));
    baseline.push_back(passes.back().wall_s);
  }
  {
    ClusterService traced_service(*in->dg, service_config(kWorkers, kQueryThreads, true));
    passes.push_back(run_pass(*in, traced_service, check, pin, "traced pass", &spans));
    report.set("obs.overhead_pct", (passes.back().wall_s / median(baseline) - 1.0) * 100.0,
               "%");
    LayerTotals layers;
    for (const Sample& s : passes.back().samples) {
      if (const MetricsTimeline* tl = traced_service.timeline(s.id)) layers.add(*tl);
      layers.add_ledger(s.outcome.value().ledger);
    }
    layers.report(report);
  }

  std::array<std::vector<double>, kKinds> exec_ms;
  std::vector<double> queue_wait_ms;
  for (const ServePass& pass : passes) {
    for (const Sample& s : pass.samples) {
      const double exec_s = static_cast<double>(s.outcome.value().wall_us) * 1e-6;
      exec_ms[s.request].push_back(exec_s * 1e3);
      queue_wait_ms.push_back((s.latency_s - exec_s) * 1e3);
    }
  }
  for (std::size_t i = 0; i < kKinds; ++i) {
    report.set(std::string("serve.exec_ms.") + query_kind_name(kKindOrder[i]),
               median(exec_ms[i]), "ms");
  }
  report.set("serve.queue_wait_ms_p50", median(queue_wait_ms), "ms");
  const ServiceStats stats = in->service->stats();
  report.set("serve.rejected", static_cast<double>(stats.rejected_overload), "count");
  report.set("serve.retries", static_cast<double>(stats.retries), "count");

  // threads=1 repeat: every request once more, synchronously, on a
  // single-threaded service; each kind's ledger must equal the first pass's.
  {
    ClusterService single(*in->dg, service_config(1, 1, false));
    std::array<std::optional<LedgerPin>, kKinds> per_kind;
    for (const Sample& s : passes.front().samples) {
      LedgerPin p;
      p.add(s.outcome.value().ledger);
      per_kind[s.request] = p;
    }
    for (std::size_t i = 0; i < kKinds; ++i) {
      const std::string what =
          std::string("threads=1 repeat: ") + query_kind_name(in->requests[i].kind);
      const QueryOutcome outcome = single.run_query(in->requests[i]);
      if (!outcome.ok()) {
        check.expect(false, what + " failed: " + outcome.error().message);
        continue;
      }
      check.expect(answer_ok(*in, i, outcome.value()), what + " answer");
      LedgerPin p;
      p.add(outcome.value().ledger);
      pin_ledger(check, per_kind[i], p, what);
    }
  }
  report_round_slopes(report, check, opt.seed);
  if (!spans.write_json(opt.work_dir + "/spans-serve-mix.json")) {
    std::fprintf(stderr, "perfbench: could not write the span dump\n");
  }
}

}  // namespace perfbench
