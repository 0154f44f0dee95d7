#pragma once
// Shared helpers for the experiment harnesses (the bench_* binaries, one
// per quantitative claim of the paper).
//
// Each bench binary regenerates one of the paper's quantitative claims and
// prints a self-contained table: the claim, the measured series, and the
// derived columns that make the comparison (normalized rounds, log-log
// slopes). The repository benchmark — named end-to-end workloads with
// regression bounds — is perfbench/ (see perfbench/README.md).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.hpp"
#include "kmm.hpp"

namespace kmmbench {

using namespace kmm;

inline void banner(const char* experiment, const char* claim) {
  std::printf("==================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==================================================================\n");
}

/// Wall time of the three superstep phases during a run (deltas of the
/// runtime_phase_totals() process counters): handler = parallel local
/// computation, deliver = moving messages into inboxes, reduce = folding
/// the per-destination ledger partials. The columns that show where a
/// thread-scaling section's wall-clock actually goes.
struct PhaseMs {
  double handler_ms = 0.0;
  double deliver_ms = 0.0;
  double reduce_ms = 0.0;

  static PhaseMs between(const RuntimePhaseTotals& before, const RuntimePhaseTotals& after) {
    // Saturating subtraction: a torn read of the relaxed process-wide
    // counters (or swapped arguments) degrades to a 0 column, never to a
    // ~2^64 ns garbage row in the JSON trajectory.
    const RuntimePhaseTotals d = after - before;
    return PhaseMs{static_cast<double>(d.handler_ns) * 1e-6,
                   static_cast<double>(d.deliver_ns) * 1e-6,
                   static_cast<double>(d.reduce_ns) * 1e-6};
  }
};

/// A run plus its wall-clock time (the simulator's real execution time —
/// what the runtime's --threads knob improves; the simulated round count is
/// thread-invariant by construction).
struct TimedResult {
  BoruvkaResult result;
  double wall_ms = 0.0;
  std::uint64_t allocs = 0;           // operator-new calls during the run
  std::uint64_t peak_heap_bytes = 0;  // heap high-water mark during the run
  PhaseMs phase;
};

/// Algorithm-agnostic flavor of TimedResult for the non-Borůvka entry
/// points (flooding, referee, min-cut, verification, REP baselines): just
/// the RunStats ledger delta plus wall-clock, with an optional phase count
/// for algorithms that have one.
struct TimedStats {
  RunStats stats;
  std::size_t phases = 0;
  double wall_ms = 0.0;
  std::uint64_t allocs = 0;           // operator-new calls during the run
  std::uint64_t peak_heap_bytes = 0;  // heap high-water mark during the run
  PhaseMs phase;
};

/// Allocations per superstep for a timed run (0 when the run had no
/// supersteps); the column that separates "faster because parallel" from
/// "faster because fewer mallocs" in the scaling JSON.
template <typename Timed>
double allocs_per_superstep(const Timed& timed, std::uint64_t supersteps) {
  if (supersteps == 0) return 0.0;
  return static_cast<double>(timed.allocs) / static_cast<double>(supersteps);
}

/// Time `fn()` (which must return something carrying .stats) into a
/// TimedStats record; `phases_of` extracts the phase count from the result
/// (BoruvkaResult::phases, MinCutResult::levels, ...).
template <typename Fn, typename PhasesOf>
TimedStats time_stats(const Fn& fn, const PhasesOf& phases_of) {
  const auto a0 = alloc_count();
  reset_peak_heap();
  const auto p0 = runtime_phase_totals();
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = fn();
  const auto t1 = std::chrono::steady_clock::now();
  return TimedStats{result.stats, phases_of(result),
                    std::chrono::duration<double, std::milli>(t1 - t0).count(),
                    alloc_count() - a0, peak_heap_bytes(),
                    PhaseMs::between(p0, runtime_phase_totals())};
}

/// Same, for algorithms with no phase notion (phases = 0).
template <typename Fn>
TimedStats time_stats(const Fn& fn) {
  return time_stats(fn, [](const auto&) { return std::size_t{0}; });
}

/// One standard connectivity run; returns the full result (stats included).
/// Pass `obs` to record the run's superstep timeline / trace (the sink is
/// forwarded through BoruvkaConfig; nullptr keeps the run unobserved).
inline BoruvkaResult run_connectivity(const Graph& g, MachineId k, std::uint64_t seed,
                                      unsigned threads = 1,
                                      const ObsSink* obs = nullptr) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), k));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, split(seed, 1)));
  BoruvkaConfig cfg;
  cfg.seed = split(seed, 2);
  cfg.threads = threads;
  cfg.obs = obs;
  return connected_components(cluster, dg, cfg);
}

/// Per-superstep wall-time distribution of a recorded timeline: the bench
/// columns that expose stragglers (one slow superstep hiding in a flat
/// mean). Times are the handler+deliver+reduce sum per charged superstep,
/// with the free-superstep carry already folded in by the timeline.
struct SuperstepWallSummary {
  std::size_t supersteps = 0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double max_us = 0.0;
};

/// `first_row` skips a warmup prefix (benches that warm buffers before the
/// timed window pass the row count at the end of warmup).
inline SuperstepWallSummary summarize_superstep_wall(const MetricsTimeline& tl,
                                                     std::size_t first_row = 0) {
  SuperstepWallSummary s;
  if (first_row >= tl.size()) return s;
  s.supersteps = tl.size() - first_row;
  std::vector<double> us;
  us.reserve(s.supersteps);
  for (std::size_t i = first_row; i < tl.size(); ++i) {
    const auto& r = tl.row(i);
    us.push_back(static_cast<double>(r.handler_ns + r.deliver_ns + r.reduce_ns) * 1e-3);
  }
  s.p50_us = quantile(us, 0.50);
  s.p95_us = quantile(us, 0.95);
  s.max_us = quantile(us, 1.0);
  return s;
}

/// The JSON tail for a record carrying a superstep wall-time distribution;
/// splice into a record_raw() object.
inline std::string superstep_wall_json(const SuperstepWallSummary& s) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"superstep_p50_us\": %.2f, \"superstep_p95_us\": %.2f, "
                "\"superstep_max_us\": %.2f",
                s.p50_us, s.p95_us, s.max_us);
  return buf;
}

inline BoruvkaResult run_mst(const Graph& g, MachineId k, std::uint64_t seed,
                             unsigned threads = 1) {
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), k));
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, split(seed, 1)));
  BoruvkaConfig cfg;
  cfg.seed = split(seed, 2);
  cfg.threads = threads;
  return minimum_spanning_forest(cluster, dg, cfg);
}

inline TimedResult run_connectivity_timed(const Graph& g, MachineId k, std::uint64_t seed,
                                          unsigned threads = 1) {
  const auto a0 = alloc_count();
  reset_peak_heap();
  const auto p0 = runtime_phase_totals();
  const auto t0 = std::chrono::steady_clock::now();
  auto result = run_connectivity(g, k, seed, threads);
  const auto t1 = std::chrono::steady_clock::now();
  return TimedResult{std::move(result),
                     std::chrono::duration<double, std::milli>(t1 - t0).count(),
                     alloc_count() - a0, peak_heap_bytes(),
                     PhaseMs::between(p0, runtime_phase_totals())};
}

inline TimedResult run_mst_timed(const Graph& g, MachineId k, std::uint64_t seed,
                                 unsigned threads = 1) {
  const auto a0 = alloc_count();
  reset_peak_heap();
  const auto p0 = runtime_phase_totals();
  const auto t0 = std::chrono::steady_clock::now();
  auto result = run_mst(g, k, seed, threads);
  const auto t1 = std::chrono::steady_clock::now();
  return TimedResult{std::move(result),
                     std::chrono::duration<double, std::milli>(t1 - t0).count(),
                     alloc_count() - a0, peak_heap_bytes(),
                     PhaseMs::between(p0, runtime_phase_totals())};
}

/// Machine-readable perf trajectory: every record() appends a JSON object;
/// the destructor writes BENCH_<name>.json into the working directory so CI
/// and bench/aggregate_bench.py can track rounds and wall-clock across
/// commits without scraping the human-readable tables.
class BenchJson {
 public:
  explicit BenchJson(std::string name) : name_(std::move(name)) {}

  BenchJson(const BenchJson&) = delete;
  BenchJson& operator=(const BenchJson&) = delete;

  /// Schema shared by every bench: one flat object per run. Non-Borůvka
  /// algorithms record through the RunStats overload (phases = 0 when the
  /// algorithm has no phase notion). Thread-scaling sections pass the
  /// per-phase wall split (handler/deliver/reduce, from PhaseMs) so the
  /// trajectory separates "faster because parallel handlers" from "faster
  /// because parallel delivery"; pass phase_ms = nullptr to omit. A nonzero
  /// peak_heap_bytes (the run's heap high-water mark from alloc_counter)
  /// adds the memory-footprint column; 0 omits it.
  void record(const char* family, std::size_t n, std::size_t m, MachineId k,
              unsigned threads, const RunStats& stats, std::size_t phases,
              double wall_ms, double allocs_per_superstep = -1.0,
              const PhaseMs* phase_ms = nullptr, std::uint64_t peak_heap_bytes = 0) {
    char buf[640];
    int len = std::snprintf(buf, sizeof(buf),
                            "    {\"family\": \"%s\", \"n\": %zu, \"m\": %zu, \"k\": %u, "
                            "\"threads\": %u, \"rounds\": %llu, \"messages\": %llu, "
                            "\"bits\": %llu, \"supersteps\": %llu, \"phases\": %zu, "
                            "\"wall_ms\": %.3f",
                            family, n, m, k, threads,
                            static_cast<unsigned long long>(stats.rounds),
                            static_cast<unsigned long long>(stats.messages),
                            static_cast<unsigned long long>(stats.bits),
                            static_cast<unsigned long long>(stats.supersteps), phases,
                            wall_ms);
    // snprintf returns the would-be length; clamp so a truncated record
    // can't push the follow-up writes out of bounds.
    len = std::min(len, static_cast<int>(sizeof(buf)) - 1);
    if (allocs_per_superstep >= 0.0) {
      len += std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len),
                           ", \"allocs_per_superstep\": %.1f", allocs_per_superstep);
      len = std::min(len, static_cast<int>(sizeof(buf)) - 1);
    }
    if (phase_ms != nullptr) {
      len += std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len),
                           ", \"handler_ms\": %.3f, \"deliver_ms\": %.3f, "
                           "\"reduce_ms\": %.3f",
                           phase_ms->handler_ms, phase_ms->deliver_ms, phase_ms->reduce_ms);
      len = std::min(len, static_cast<int>(sizeof(buf)) - 1);
    }
    if (peak_heap_bytes != 0) {
      len += std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len),
                           ", \"peak_heap_bytes\": %llu",
                           static_cast<unsigned long long>(peak_heap_bytes));
      len = std::min(len, static_cast<int>(sizeof(buf)) - 1);
    }
    std::snprintf(buf + len, sizeof(buf) - static_cast<std::size_t>(len), "}");
    records_.emplace_back(buf);
  }

  /// Escape hatch for benches whose schema doesn't fit the flat record
  /// above (e.g. the superstep-throughput microbench): `json` must be one
  /// complete object, no trailing comma.
  void record_raw(std::string json) { records_.push_back("    " + std::move(json)); }

  void record(const char* family, std::size_t n, std::size_t m, MachineId k,
              unsigned threads, const BoruvkaResult& res, double wall_ms) {
    record(family, n, m, k, threads, res.stats, res.phases.size(), wall_ms);
  }

  ~BenchJson() {
    const std::string path = "BENCH_" + name_ + ".json";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return;
    // hardware_concurrency contextualizes every thread-scaling section: a
    // 1-core CI runner's ~1x speedups are expected, not regressions.
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"hardware_concurrency\": %u,\n  \"records\": [\n",
                 name_.c_str(), std::thread::hardware_concurrency());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      std::fprintf(f, "%s%s\n", records_[i].c_str(),
                   i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s (%zu records)\n", path.c_str(), records_.size());
  }

 private:
  std::string name_;
  std::vector<std::string> records_;
};

/// Weighted graph with distinct weights for MST experiments.
inline Graph weighted_unique(Graph g, std::uint64_t seed, Weight limit = 1'000'000) {
  Rng rng(seed);
  return with_unique_weights(with_random_weights(g, rng, limit));
}

/// Shared runtime thread-scaling harness: run `runner(threads)` over
/// threads ∈ {1, 2, 4, 8}, print wall-clock and speedup vs threads=1,
/// record every run into `json`, and enforce the runtime's ledger
/// invariant (the simulated round count must not depend on the thread
/// count). Returns false — after printing a LEDGER MISMATCH line — if the
/// invariant is violated, so benches can exit nonzero.
inline bool run_thread_scaling_stats(const char* family, std::size_t n, std::size_t m,
                                     MachineId k, BenchJson& json,
                                     const std::function<TimedStats(unsigned)>& runner) {
  std::printf("%8s %10s %9s %9s %14s %11s %11s %10s %9s\n", "threads", "rounds", "wall_ms",
              "speedup", "allocs/sstep", "handler_ms", "deliver_ms", "reduce_ms", "peak_MB");
  double base_ms = 0.0;
  std::uint64_t base_rounds = 0;
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    const auto timed = runner(threads);
    if (threads == 1) {
      base_ms = timed.wall_ms;
      base_rounds = timed.stats.rounds;
    }
    const double aps = allocs_per_superstep(timed, timed.stats.supersteps);
    std::printf("%8u %10llu %9.1f %8.2fx %14.1f %11.1f %11.1f %10.1f %9.1f\n", threads,
                static_cast<unsigned long long>(timed.stats.rounds), timed.wall_ms,
                base_ms / timed.wall_ms, aps, timed.phase.handler_ms, timed.phase.deliver_ms,
                timed.phase.reduce_ms,
                static_cast<double>(timed.peak_heap_bytes) / (1024.0 * 1024.0));
    if (timed.stats.rounds != base_rounds) {
      std::printf("  LEDGER MISMATCH at threads=%u — runtime invariant violated\n", threads);
      return false;
    }
    json.record(family, n, m, k, threads, timed.stats, timed.phases, timed.wall_ms, aps,
                &timed.phase, timed.peak_heap_bytes);
  }
  return true;
}

inline bool run_thread_scaling(const char* family, std::size_t n, std::size_t m, MachineId k,
                               BenchJson& json,
                               const std::function<TimedResult(unsigned)>& runner) {
  return run_thread_scaling_stats(
      family, n, m, k, json, [&](unsigned threads) {
        const auto timed = runner(threads);
        return TimedStats{timed.result.stats, timed.result.phases.size(), timed.wall_ms,
                          timed.allocs, timed.peak_heap_bytes, timed.phase};
      });
}

/// log-log slope of rounds against k (the paper predicts ~ -2 for the
/// sketch algorithms, ~ -1 for the n/k baselines).
inline double slope_vs_k(const std::vector<double>& ks, const std::vector<double>& rounds) {
  return loglog_slope(ks, rounds);
}

inline void print_slope(const char* label, const std::vector<double>& ks,
                        const std::vector<double>& rounds) {
  std::printf("  fitted log-log slope of %-28s : %+.2f\n", label,
              slope_vs_k(ks, rounds));
}

}  // namespace kmmbench
