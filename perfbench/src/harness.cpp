#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

namespace perfbench {

namespace {

using namespace kmm;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// The metric sets BENCHMARK.json declares; print() refuses to emit anything
// else, so the two cannot drift apart silently.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},        {"wall_s", "s"},          {"peak_heap_mb", "MB"},
    {"sim_rounds", "count"}, {"sim_bits", "count"},    {"qps", "1/s"},
    {"latency_p50_ms", "ms"}, {"latency_p95_ms", "ms"},
};

constexpr MetricSpec kPerLayer[] = {
    {"runtime.handler_ms", "ms"},
    {"runtime.deliver_ms", "ms"},
    {"runtime.reduce_ms", "ms"},
    {"runtime.superstep_p95_us", "us"},
    {"runtime.supersteps", "count"},
    {"runtime.allocs_per_superstep", "count"},
    {"runtime.msgs_per_s", "1/s"},
    {"cluster.messages", "count"},
    {"cluster.bits", "count"},
    {"cluster.max_link_bits", "count"},
    {"cluster.ingest_ms", "ms"},
    {"cluster.ingest_peak_mb", "MB"},
    {"cluster.ingest_edges_per_s", "1/s"},
    {"cluster.materialize_ms", "ms"},
    {"core.conn_ms", "ms"},
    {"core.conn_rounds", "count"},
    {"core.conn_phases", "count"},
    {"core.mst_ms", "ms"},
    {"core.mst_rounds", "count"},
    {"core.mst_phases", "count"},
    {"core.flood_ms", "ms"},
    {"core.conn_slope_k", "ratio"},
    {"core.mst_slope_k", "ratio"},
    {"core.flood_slope_k", "ratio"},
    {"graph.reference_ms", "ms"},
    {"durable.commits", "count"},
    {"durable.mb_written", "MB"},
    {"durable.commit_ms", "ms"},
    {"fault.checkpoints", "count"},
    {"fault.checkpoint_words", "count"},
    {"serve.queue_wait_ms_p50", "ms"},
    {"serve.rejected", "count"},
    {"serve.retries", "count"},
    {"obs.overhead_pct", "%"},
};

constexpr QueryKind kAllKinds[] = {
    QueryKind::kConnectivity,          QueryKind::kMst,
    QueryKind::kMinCut,                QueryKind::kTwoEdge,
    QueryKind::kFlooding,              QueryKind::kRefereeConnectivity,
    QueryKind::kLeaderElection,        QueryKind::kVerifySpanningSubgraph,
    QueryKind::kVerifyCut,             QueryKind::kVerifyStConnectivity,
    QueryKind::kVerifyEdgeOnAllPaths,  QueryKind::kVerifyStCut,
    QueryKind::kVerifyCycle,           QueryKind::kVerifyECycle,
    QueryKind::kVerifyBipartite,
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

/// Every value with all its digits; %.17g round-trips a double exactly.
std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

}  // namespace

// ------------------------------------------------ time and statistics

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  return values.empty() ? 0.0 : quantile(std::move(values), 0.5);
}

double mib(std::uint64_t bytes) { return static_cast<double>(bytes) / (1024.0 * 1024.0); }

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ------------------------------------------------ spans

int Spans::begin(std::string name) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{std::move(name), open_.empty() ? -1 : open_.back(), now_s(), 0.0});
  open_.push_back(id);
  return id;
}

void Spans::end(int id) {
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

void Spans::add(std::string name, int parent, double start_s, double end_s) {
  spans_.push_back(Span{std::move(name), parent, start_s, end_s});
}

double Spans::total_ms(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += (s.end_s - s.start_s) * 1e3;
  }
  return total;
}

bool Spans::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, \"start_us\": %.3f, "
                 "\"end_us\": %.3f}%s\n",
                 i, json_escape(s.name).c_str(), s.parent, (s.start_s - origin_s_) * 1e6,
                 (s.end_s - origin_s_) * 1e6, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ------------------------------------------------ correctness

void Checker::expect(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  }
}

void pin_ledger(Checker& check, std::optional<LedgerPin>& want, const LedgerPin& got,
                const std::string& what) {
  if (!want) want = got;
  check.expect(*want == got, what + ": ledger differs from the first pass (rounds " +
                                 std::to_string(got.rounds) + " vs " +
                                 std::to_string(want->rounds) + ")");
}

// ------------------------------------------------ report

void Report::set(const std::string& name, double value, const std::string& unit) {
  metrics_[name] = {value, unit};
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

bool Report::print(const Options& opt, const Checker& check) const {
  std::set<std::string> expected;
  if (opt.trace) {
    for (const MetricSpec& m : kPerLayer) expected.insert(m.name);
    for (const QueryKind kind : kAllKinds) {
      expected.insert(std::string("serve.exec_ms.") + query_kind_name(kind));
    }
  } else {
    for (const MetricSpec& m : kEndToEnd) expected.insert(m.name);
  }
  std::set<std::string> got;
  for (const auto& [name, value] : metrics_) got.insert(name);
  if (got != expected) {
    std::fprintf(stderr, "perfbench: reported metric set does not match the declared one\n");
    return false;
  }

  std::printf("\n%-34s %18s  %s\n", "metric", "value", "unit");
  for (const auto& [name, vu] : metrics_) {
    std::printf("%-34s %18.6f  %s\n", name.c_str(), vu.first, vu.second.c_str());
  }
  const double failed_frac = check.attempted == 0
                                 ? 0.0
                                 : static_cast<double>(check.failed) /
                                       static_cast<double>(check.attempted);
  std::printf("%-34s %18.6f  ratio (%llu of %llu answers checked)\n", "failed_frac",
              failed_frac, static_cast<unsigned long long>(check.failed),
              static_cast<unsigned long long>(check.attempted));

  std::string env = "{\"workload\": \"" + json_escape(opt.workload) +
                    "\", \"seed\": " + std::to_string(opt.seed) +
                    ", \"trace\": " + (opt.trace ? "1" : "0") +
                    ", \"hardware_concurrency\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) +
                    "\", \"build_type\": \"" + json_escape(PERFBENCH_BUILD_TYPE) + "\"";
  for (const auto& [key, value] : notes_) {
    env += ", \"" + json_escape(key) + "\": \"" + json_escape(value) + "\"";
  }
  std::printf("env %s}\n", env.c_str());

  std::string line = std::string("{\"correct\": ") + (check.failed == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(check.attempted) +
                     ", \"failed\": " + std::to_string(check.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    line += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " +
            number(vu.first) + ", \"unit\": \"" + vu.second + "\"}";
    first = false;
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return true;
}

void PassSamples::add(const PassOut& p) {
  wall_s.push_back(p.wall_s);
  peak_mb.push_back(p.peak_mb);
  if (p.requests_s.empty()) {
    requests_s.push_back(p.wall_s);
  } else {
    requests_s.insert(requests_s.end(), p.requests_s.begin(), p.requests_s.end());
    pass_p95_s.push_back(quantile(p.requests_s, 0.95));
  }
}

void PassSamples::report(Report& report, const std::vector<double>& setup_s,
                         const LedgerPin& ledger) const {
  report.set("setup_s", median(setup_s), "s");
  report.set("wall_s", median(wall_s), "s");
  report.set("peak_heap_mb", median(peak_mb), "MB");
  report.set("sim_rounds", static_cast<double>(ledger.rounds), "count");
  report.set("sim_bits", static_cast<double>(ledger.bits), "count");
  double busy_s = 0.0;
  for (const double w : wall_s) busy_s += w;
  report.set("qps", static_cast<double>(requests_s.size()) / busy_s, "1/s");
  report.set("latency_p50_ms", median(requests_s) * 1e3, "ms");
  report.set("latency_p95_ms",
             (pass_p95_s.empty() ? quantile(wall_s, 0.95) : median(pass_p95_s)) * 1e3, "ms");
}

// ------------------------------------------------ per-layer summaries

void LayerTotals::add(const MetricsTimeline& timeline) {
  for (std::size_t i = 0; i < timeline.size(); ++i) {
    const MetricsTimeline::Row& r = timeline.row(i);
    handler_ns_ += r.handler_ns;
    deliver_ns_ += r.deliver_ns;
    reduce_ns_ += r.reduce_ns;
    allocs_ += r.allocs;
    row_messages_ += r.messages;
    row_us_.push_back(static_cast<double>(timeline.wall_ns(i)) * 1e-3);
  }
  rows_ += timeline.size();
}

void LayerTotals::add_ledger(const ClusterStats& stats) {
  messages_ += stats.messages;
  bits_ += stats.total_bits;
  max_link_bits_ = std::max(max_link_bits_, stats.max_link_bits);
}

void LayerTotals::report(Report& report) const {
  const double busy_s = static_cast<double>(handler_ns_ + deliver_ns_ + reduce_ns_) * 1e-9;
  report.set("runtime.handler_ms", static_cast<double>(handler_ns_) * 1e-6, "ms");
  report.set("runtime.deliver_ms", static_cast<double>(deliver_ns_) * 1e-6, "ms");
  report.set("runtime.reduce_ms", static_cast<double>(reduce_ns_) * 1e-6, "ms");
  report.set("runtime.superstep_p95_us", row_us_.empty() ? 0.0 : quantile(row_us_, 0.95),
             "us");
  report.set("runtime.supersteps", static_cast<double>(rows_), "count");
  report.set("runtime.allocs_per_superstep",
             rows_ == 0 ? 0.0 : static_cast<double>(allocs_) / static_cast<double>(rows_),
             "count");
  report.set("runtime.msgs_per_s",
             busy_s > 0.0 ? static_cast<double>(row_messages_) / busy_s : 0.0, "1/s");
  report.set("cluster.messages", static_cast<double>(messages_), "count");
  report.set("cluster.bits", static_cast<double>(bits_), "count");
  report.set("cluster.max_link_bits", static_cast<double>(max_link_bits_), "count");
}

void report_layer_defaults(Report& report) {
  for (const MetricSpec& m : kPerLayer) report.set(m.name, 0.0, m.unit);
  for (const QueryKind kind : kAllKinds) {
    report.set(std::string("serve.exec_ms.") + query_kind_name(kind), 0.0, "ms");
  }
}

void report_round_slopes(Report& report, Checker& check, std::uint64_t seed) {
  // n/k^2 = 16 >= log2 n = 14 at the largest k: the regime the paper's
  // O~(n/k^2) bound speaks about.
  constexpr std::size_t n = 1 << 14, m = 3 * n;
  gen::ParGenConfig gcfg;
  gcfg.seed = split(seed, 0x510e);
  gcfg.threads = 4;
  gcfg.weight_limit = 1'000'000;
  const Graph g = with_unique_weights(gen::gnm_par(n, m, gcfg));
  const std::size_t want_components = ref::component_count(g);
  const Weight want_weight = ref::msf_weight(g);

  std::vector<double> ks, conn_rounds, mst_rounds, flood_rounds;
  for (const MachineId k : {4u, 8u, 16u, 32u}) {
    const DistributedGraph dg(g, VertexPartition::random(n, k, split(seed, 0x9a97 + k)));
    BoruvkaConfig cfg;
    cfg.seed = split(seed, 0xa190 + k);
    cfg.threads = 4;
    const std::string at = " (slope input, k=" + std::to_string(k) + ")";

    Cluster c1(ClusterConfig::for_graph(n, k));
    const BoruvkaResult conn = connected_components(c1, dg, cfg);
    check.expect(conn.num_components == want_components, "conn components" + at);

    Cluster c2(ClusterConfig::for_graph(n, k));
    const BoruvkaResult mst = minimum_spanning_forest(c2, dg, cfg);
    Weight weight = 0;
    for (const WeightedEdge& e : mst.mst_edges()) weight += e.w;
    check.expect(weight == want_weight, "mst weight" + at);

    Cluster c3(ClusterConfig::for_graph(n, k));
    FloodingConfig fcfg;
    fcfg.threads = 4;
    const FloodingResult flood = flooding_connectivity(c3, dg, fcfg);
    check.expect(flood.num_components == want_components, "flood components" + at);

    ks.push_back(k);
    conn_rounds.push_back(static_cast<double>(conn.stats.rounds));
    mst_rounds.push_back(static_cast<double>(mst.stats.rounds));
    flood_rounds.push_back(static_cast<double>(flood.stats.rounds));
  }
  report.set("core.conn_slope_k", loglog_slope(ks, conn_rounds), "ratio");
  report.set("core.mst_slope_k", loglog_slope(ks, mst_rounds), "ratio");
  report.set("core.flood_slope_k", loglog_slope(ks, flood_rounds), "ratio");
}

}  // namespace perfbench
