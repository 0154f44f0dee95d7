#pragma once
// Shared machinery of the repository benchmark: options, the counting
// allocator's readings, benchmark-side spans, the metric report, the
// correctness tally, ledger pins and the per-layer summaries taken from
// MetricsTimeline rows.
//
// The benchmark drives the library only through its public entry points and
// times every call from outside. Untraced runs measure the end-to-end
// metrics; a traced run (--trace 1) attaches MetricsTimeline sinks through
// the configs' `obs` field, records spans around each layer call, and
// reports the per-layer metrics.

#include <cstdint>
#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "kmm.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir = ".";  // scratch space (durable generations, span dumps)
};

/// Passes of a batch workload run until `seconds` of measurement, but at
/// least this many, so the medians have samples on both sides.
inline constexpr int kMinPasses = 5;
/// Setups per run (see time_setups); setup_s is their median.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 25;
inline constexpr double kSetupBudgetS = 2.0;

// ------------------------------------------------ counting allocator
// Replacement operator new/delete live in alloc_counter.cpp.

[[nodiscard]] std::uint64_t alloc_count() noexcept;
[[nodiscard]] std::uint64_t peak_heap_bytes() noexcept;
/// Restart the high-water mark at the current live size.
void reset_peak_heap() noexcept;

// ------------------------------------------------ time and statistics

/// Seconds on the steady clock.
[[nodiscard]] double now_s();
[[nodiscard]] double median(std::vector<double> values);
[[nodiscard]] double mib(std::uint64_t bytes);

// ------------------------------------------------ spans

/// Benchmark-side spans around each layer call (name, parent, start, end),
/// kept in memory and written out as JSON when the run ends.
class Spans {
 public:
  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  int begin(std::string name);
  void end(int id);
  /// A finished span timed elsewhere (e.g. on a client thread), as a child
  /// of `parent`.
  void add(std::string name, int parent, double start_s, double end_s);
  /// Id of the most recently begun span.
  [[nodiscard]] int last() const noexcept { return static_cast<int>(spans_.size()) - 1; }
  /// Summed duration of every span called `name`, in milliseconds.
  [[nodiscard]] double total_ms(const std::string& name) const;
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  double origin_s_ = now_s();
};

/// RAII span; a null Spans* records nothing (the untraced runs).
class SpanScope {
 public:
  SpanScope(Spans* spans, std::string name)
      : spans_(spans), id_(spans != nullptr ? spans->begin(std::move(name)) : -1) {}
  ~SpanScope() {
    if (spans_ != nullptr) spans_->end(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Spans* spans_;
  int id_;
};

// ------------------------------------------------ correctness

/// Answers checked against the sequential references computed in setup.
struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  /// Count one checked answer; a mismatch is reported on stderr.
  void expect(bool ok, const std::string& what);
};

/// The simulated cost of one pass. It must repeat exactly across passes of
/// a run and across thread counts: a change that alters it changed the
/// protocol, not the speed.
struct LedgerPin {
  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
  std::uint64_t messages = 0;

  void add(const kmm::RunStats& s) {
    rounds += s.rounds;
    bits += s.bits;
    messages += s.messages;
  }
  void add(const kmm::ClusterStats& s) {
    rounds += s.rounds;
    bits += s.total_bits;
    messages += s.messages;
  }
  friend bool operator==(const LedgerPin&, const LedgerPin&) = default;
};

/// Compare `got` against the pass-0 reference `want` (setting it on first
/// use) and count the comparison in `check`.
void pin_ledger(Checker& check, std::optional<LedgerPin>& want, const LedgerPin& got,
                const std::string& what);

// ------------------------------------------------ report

class Report {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  /// Context printed on the env line (workload, fingerprint, sizes).
  void note(const std::string& key, const std::string& value);

  /// Human-readable metric table, the env line, then the one-line JSON
  /// result as the last line of stdout. Returns false, printing nothing,
  /// when the metric set differs from the one BENCHMARK.json declares.
  [[nodiscard]] bool print(const Options& opt, const Checker& check) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// One pass of a batch workload: its wall time, heap high-water mark and,
/// when the pass serves several requests, the latency of each. A pass that
/// leaves `requests_s` empty is one request.
struct PassOut {
  double wall_s = 0.0;
  double peak_mb = 0.0;
  std::vector<double> requests_s;
};

/// Per-pass samples of the batch workloads and the end-to-end metrics
/// derived from them.
struct PassSamples {
  std::vector<double> wall_s;
  std::vector<double> peak_mb;
  std::vector<double> requests_s;  // every request of every pass
  std::vector<double> pass_p95_s;  // each pass's p95, when it has several requests

  void add(const PassOut& p);
  /// setup_s, wall_s, peak_heap_mb, sim_rounds, sim_bits, qps and the
  /// latency percentiles. latency_p95_ms is the median over passes of each
  /// pass's p95 when a pass serves several requests (an episode of host
  /// contention that slows a few passes then moves it no more than it moves
  /// the median), and the p95 over passes when each pass is one request.
  void report(Report& report, const std::vector<double>& setup_s, const LedgerPin& ledger) const;
};

/// Run `pass()` (returning PassOut) until `seconds` have been measured and
/// at least kMinPasses passes are in.
template <typename PassFn>
PassSamples measure_passes(double seconds, PassFn pass) {
  PassSamples s;
  const double t0 = now_s();
  while (static_cast<int>(s.wall_s.size()) < kMinPasses || now_s() - t0 < seconds) {
    const PassOut p = pass();
    s.add(p);
    std::printf("pass %zu: %.6f s, peak heap %.3f MB", s.wall_s.size(), p.wall_s, p.peak_mb);
    for (const double r : p.requests_s) std::printf(" %.3f", r);
    std::printf("\n");
  }
  return s;
}

/// Setup time of each call of `setup()`, which stores what the passes
/// need; setup_s is their median. Repeats until kSetupBudgetS have been
/// spent, between kMinSetups and kMaxSetups times, so that a fast setup is
/// still sampled often enough for a steady median.
template <typename SetupFn>
std::vector<double> time_setups(SetupFn setup) {
  std::vector<double> out;
  double spent = 0.0;
  while (static_cast<int>(out.size()) < kMinSetups ||
         (spent < kSetupBudgetS && static_cast<int>(out.size()) < kMaxSetups)) {
    const double t0 = now_s();
    setup();
    out.push_back(now_s() - t0);
    spent += out.back();
  }
  std::printf("setup: %zu times, median %.6f s, first %.6f s\n", out.size(), median(out),
              out.front());
  return out;
}

[[nodiscard]] std::string hex(std::uint64_t v);

// ------------------------------------------------ per-layer summaries

/// Sums MetricsTimeline rows (runtime.* per-layer metrics) and ledgers
/// (cluster.* counts) over every Runtime of a traced pass.
class LayerTotals {
 public:
  void add(const kmm::MetricsTimeline& timeline);
  void add_ledger(const kmm::ClusterStats& stats);
  void report(Report& report) const;

 private:
  std::uint64_t handler_ns_ = 0, deliver_ns_ = 0, reduce_ns_ = 0;
  std::uint64_t rows_ = 0, allocs_ = 0, row_messages_ = 0;
  std::vector<double> row_us_;
  std::uint64_t messages_ = 0, bits_ = 0, max_link_bits_ = 0;
};

/// Fits log-log slopes of rounds against k ∈ {4, 8, 16, 32} on a small G(n,m)
/// with n/k² ≥ log n and reports core.conn_slope_k, core.mst_slope_k and
/// core.flood_slope_k (exact round counts, so the slopes repeat exactly).
void report_round_slopes(Report& report, Checker& check, std::uint64_t seed);

/// Zero-valued entries for the per-layer metrics a workload does not
/// exercise, so every traced run reports the same metric set.
void report_layer_defaults(Report& report);

// ------------------------------------------------ workloads

void run_pipeline_gnm(const Options& opt, Report& report, Checker& check);
void run_flood_durable(const Options& opt, Report& report, Checker& check);
void run_serve_mix(const Options& opt, Report& report, Checker& check);

}  // namespace perfbench
