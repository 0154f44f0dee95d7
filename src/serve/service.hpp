#pragma once
// ClusterService — the resilient query-serving layer over a long-lived
// distributed graph.
//
// One DistributedGraph is loaded (materialized or stream-ingested) ONCE and
// then serves many concurrent queries — connectivity, MST, approximate
// min-cut, 2-edge-connectivity, the baselines, and the eight verification
// problems — each query running on its own fresh Cluster (per-query ledger
// isolation) while all queries' Runtimes multiplex onto one shared
// ThreadPool (superstep-granularity time-slicing; see thread_pool.hpp).
//
// Robustness contract: a query NEVER aborts the service. Every submission
// resolves to a structured Expected<QueryResult, QueryError>:
//   * deadlines / budgets / client cancellation unwind cooperatively at the
//     next superstep boundary (CancelPoint, porting recipe rule 9);
//   * the admission controller rejects work that would exceed the in-flight
//     bound, the queue bound, or the MachineMemoryBudget (kOverloaded)
//     instead of accepting-then-thrashing;
//   * chaos mode arms a lethal FaultPlane against live attempts: an
//     injected crash kills the whole attempt (QueryKilled), and the seeded
//     retry policy (serve/retry.hpp) re-runs it on a fresh Cluster — with
//     kill decisions one PRF draw per (query, attempt), retries converge
//     geometrically and a surviving attempt's ledger is bit-identical to an
//     undisturbed run;
//   * malformed requests (vertices or edges outside the graph) return
//     kInvalidArgument up front. Every kind runs on either backend: the
//     subgraphs the verifiers, min-cut and two-edge reduce to are derived
//     per machine, so a shard-direct service answers all of them.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "cluster/stream_ingest.hpp"
#include "fault/fault_schedule.hpp"
#include "obs/metrics_timeline.hpp"
#include "serve/cancel.hpp"
#include "serve/retry.hpp"
#include "util/expected.hpp"

namespace kmm {

class FaultPlane;
class QueryJournal;

/// Every problem the service can answer. The four headliners, the three
/// baselines, and the eight Theorem 4 verification reductions.
enum class QueryKind : std::uint8_t {
  kConnectivity,
  kMst,
  kMinCut,
  kTwoEdge,
  kFlooding,
  kRefereeConnectivity,
  kLeaderElection,
  kVerifySpanningSubgraph,
  kVerifyCut,
  kVerifyStConnectivity,
  kVerifyEdgeOnAllPaths,
  kVerifyStCut,
  kVerifyCycle,
  kVerifyECycle,
  kVerifyBipartite,
};

/// Number of QueryKind values; every kind is below it.
inline constexpr std::size_t kQueryKindCount =
    static_cast<std::size_t>(QueryKind::kVerifyBipartite) + 1;

[[nodiscard]] const char* query_kind_name(QueryKind kind) noexcept;

struct QueryRequest {
  QueryKind kind = QueryKind::kConnectivity;
  std::uint64_t seed = 1;
  /// Per-query budget; any zero field inherits the service default.
  QueryBudget budget;
  /// Vertex operands: s/t for st-connectivity & st-cut, (s,t,x,y) for
  /// edge-on-all-paths, (x,y) for e-cycle containment.
  Vertex s = 0, t = 0, x = 0, y = 0;
  /// Edge-set operand for the subgraph/cut verifiers.
  std::vector<std::pair<Vertex, Vertex>> edges;
};

struct QueryResult {
  QueryKind kind = QueryKind::kConnectivity;
  /// Kind-dependent scalar: component count (connectivity/flooding/referee),
  /// MST edge count, min-cut estimate λ̂, certificate size (2-ECC), elected
  /// leader, or the derived graph's component count (verifiers).
  std::uint64_t value = 0;
  /// Kind-dependent verdict: "connected" for the connectivity family, the
  /// verifier's answer, 2-edge-connectivity, mincut's graph_connected.
  bool verdict = false;
  /// The full ledger of this query's private cluster — per-query isolation
  /// means this is exactly the cost of THIS query, nothing else's.
  ClusterStats ledger;
  std::uint64_t supersteps = 0;  // runtime steps driven (across all phases)
  unsigned attempts = 1;         // 1 = no chaos kill hit this query
  std::uint64_t backoff_us = 0;  // total nominal retry backoff injected
  std::uint64_t wall_us = 0;     // execution wall time (excl. queue wait)
};

struct QueryError {
  QueryErrorCode code = QueryErrorCode::kCancelled;
  std::string message;
  std::uint64_t superstep = 0;  // boundary at which the attempt unwound
  unsigned attempts = 0;        // attempts consumed before giving up
};

using QueryOutcome = Expected<QueryResult, QueryError>;

/// Chaos mode: arm a lethal fault plane against every attempt (see
/// service_attempt_schedule). kill_prob is per attempt; `profile`
/// contributes link-fault rates only (its crash_prob is ignored).
struct ServiceChaos {
  double kill_prob = 0.0;
  std::uint64_t seed = 0;
  std::uint64_t horizon = 64;  // kill steps are drawn in [0, horizon)
  FaultProfile profile;
};

struct ServiceConfig {
  /// Cluster shape for every query's private cluster.
  MachineId k = 8;
  std::uint64_t bandwidth_bits = 0;  // 0 = ClusterConfig::for_graph(n, k)
  /// Executor threads == maximum in-flight queries.
  unsigned workers = 2;
  /// Admitted-but-unstarted queries beyond which submissions are shed.
  std::size_t max_queue = 64;
  /// Per-machine byte cap the admission controller budgets in-flight and
  /// queued queries against (0 = unlimited). Reuses the stream-ingest
  /// budget type: the serving layer models each live query's per-machine
  /// footprint coarsely (see estimate_query_bytes) and rejects kOverloaded
  /// rather than thrashing the host.
  MachineMemoryBudget budget;
  /// RuntimeConfig::threads for every query (shared-pool multiplexed).
  unsigned query_threads = 1;
  QueryBudget default_budget;
  RetryPolicy retry;
  ServiceChaos chaos;
  /// Keep a per-query MetricsTimeline of the surviving attempt, retrievable
  /// via timeline(id) until the service is destroyed.
  bool record_timelines = false;
  /// Durable query journal (borrowed, optional). When set, every admitted
  /// query is journalled at submission and again at completion, so a
  /// restarted service can replay the journal and re-run ONLY the queries
  /// that were in flight when the process died (see query_journal.hpp).
  QueryJournal* journal = nullptr;
  /// First id the service assigns — a restarted service seeds this with
  /// replay().max_id + 1 so resubmitted and fresh ids never collide.
  std::uint64_t first_query_id = 1;
};

struct ServiceStats {
  std::uint64_t submitted = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t completed = 0;  // ok outcomes
  std::uint64_t failed = 0;     // structured errors (excl. admission rejects)
  std::uint64_t attempts = 0;   // query attempts started
  std::uint64_t kills = 0;      // attempts killed by injected crashes
  std::uint64_t retries = 0;    // attempts re-run after a kill
};

/// One completed query, in completion order — the service's query log (and
/// the CI artifact's row shape).
struct QueryLogEntry {
  std::uint64_t id = 0;
  QueryKind kind = QueryKind::kConnectivity;
  bool ok = false;
  QueryErrorCode error = QueryErrorCode::kCancelled;  // valid when !ok
  std::uint64_t value = 0;
  bool verdict = false;
  unsigned attempts = 0;
  std::uint64_t supersteps = 0;
  std::uint64_t rounds = 0;
  std::uint64_t bits = 0;
  std::uint64_t wall_us = 0;
  std::uint64_t backoff_us = 0;
};

/// Client handle for one submitted query. cancel() may be called from any
/// thread at any time; the query unwinds at its next superstep boundary and
/// the outcome resolves to kCancelled (or whatever completed first).
class QueryTicket {
 public:
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  void cancel() noexcept { token_.cancel(); }

  [[nodiscard]] bool done() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return outcome_.has_value();
  }
  /// Block until the outcome is available; the reference stays valid for
  /// the ticket's lifetime.
  [[nodiscard]] const QueryOutcome& wait() const {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [&] { return outcome_.has_value(); });
    return *outcome_;
  }

 private:
  friend class ClusterService;
  explicit QueryTicket(std::uint64_t id) : id_(id) {}
  void resolve(QueryOutcome outcome) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      outcome_.emplace(std::move(outcome));
    }
    cv_.notify_all();
  }

  std::uint64_t id_;
  CancelToken token_;
  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  std::optional<QueryOutcome> outcome_;
};

/// Coarse per-query memory model the admission controller budgets against:
/// label/part state is O(n) words across the cluster plus O(k) per-machine
/// sketch/buffer overhead. Deliberately simple and deterministic — the
/// controller's job is bounded degradation, not byte-accurate accounting.
[[nodiscard]] std::size_t estimate_query_bytes(std::size_t n, MachineId k) noexcept;

class ClusterService {
 public:
  /// Borrows `dg` (and its backing Graph, when materialized) for the
  /// service's lifetime. Spawns `workers` executor threads immediately.
  ClusterService(const DistributedGraph& dg, ServiceConfig config);
  /// Drains nothing: outstanding tickets resolve (kCancelled) before the
  /// executors join, so no waiter is left hanging.
  ~ClusterService();

  ClusterService(const ClusterService&) = delete;
  ClusterService& operator=(const ClusterService&) = delete;

  /// Admission + enqueue. Always returns a ticket; a shed query's ticket is
  /// already resolved to kOverloaded. A non-zero `resubmit_id` re-runs a
  /// journal-replayed query under its ORIGINAL id (idempotent restart:
  /// completion records land on the id the first lifetime journalled).
  [[nodiscard]] std::shared_ptr<QueryTicket> submit(QueryRequest request,
                                                    std::uint64_t resubmit_id = 0);

  /// Synchronous in-caller execution, bypassing the queue and admission —
  /// the determinism-test seam (same execute path, no executor scheduling).
  [[nodiscard]] QueryOutcome run_query(const QueryRequest& request,
                                       const CancelToken* token = nullptr);

  /// Block until every admitted query has completed.
  void drain();

  [[nodiscard]] ServiceStats stats() const;
  /// Completed-query log, completion order. Take a copy under the hood so
  /// callers may read while executors append.
  [[nodiscard]] std::vector<QueryLogEntry> log() const;
  /// The surviving attempt's timeline for query `id` (record_timelines
  /// only; null otherwise / while in flight).
  [[nodiscard]] const MetricsTimeline* timeline(std::uint64_t id) const;

  /// Write the query log as JSON ({"queries": [...], "stats": {...}}) — the
  /// serving-smoke CI artifact. Returns false when the file cannot open.
  [[nodiscard]] bool write_query_log_json(const std::string& path) const;

  [[nodiscard]] const ServiceConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DistributedGraph& graph() const noexcept { return *dg_; }

 private:
  struct Pending {
    std::uint64_t id = 0;
    QueryRequest request;
    std::shared_ptr<QueryTicket> ticket;
  };

  void worker_loop();
  [[nodiscard]] QueryOutcome execute(const QueryRequest& request, std::uint64_t id,
                                     const CancelToken* token);
  /// Kind dispatch for one attempt on one fresh cluster. Throws
  /// QueryCancelled (budgets/token) or QueryKilled (lethal chaos plane).
  [[nodiscard]] QueryResult dispatch(const QueryRequest& request, Cluster& cluster,
                                     CancelPoint& cancel, FaultPlane* plane,
                                     const ObsSink* obs);
  /// Request validation; returns an error for anything that would abort.
  [[nodiscard]] std::optional<QueryError> validate(const QueryRequest& request) const;
  void finish(const Pending& job, QueryOutcome outcome,
              std::unique_ptr<MetricsTimeline> timeline);

  const DistributedGraph* dg_;
  ServiceConfig config_;
  std::unique_ptr<ThreadPool> pool_;  // shared by every query's Runtimes

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   // executors: queue non-empty or stopping
  std::condition_variable drain_cv_;  // drain(): in-flight + queued == 0
  std::deque<Pending> queue_;
  std::size_t inflight_ = 0;
  std::uint64_t next_id_ = 1;
  bool stopping_ = false;
  ServiceStats stats_;
  std::vector<QueryLogEntry> log_;
  std::vector<std::pair<std::uint64_t, std::unique_ptr<MetricsTimeline>>> timelines_;

  std::vector<std::thread> executors_;
};

}  // namespace kmm
