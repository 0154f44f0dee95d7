#include "serve/service.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>

#include "core/connectivity.hpp"
#include "core/flooding.hpp"
#include "core/leader_election.hpp"
#include "core/mincut.hpp"
#include "core/mst.hpp"
#include "core/referee.hpp"
#include "core/two_edge.hpp"
#include "core/verification.hpp"
#include "fault/fault_plane.hpp"
#include "runtime/runtime.hpp"
#include "serve/query_journal.hpp"
#include "util/assert.hpp"

namespace kmm {

namespace {

inline std::uint64_t steady_now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Indexed by QueryKind, in declaration order.
constexpr const char* kQueryKindNames[] = {
    "connectivity",
    "mst",
    "mincut",
    "two_edge",
    "flooding",
    "referee",
    "leader",
    "verify_spanning_subgraph",
    "verify_cut",
    "verify_st_connectivity",
    "verify_edge_on_all_paths",
    "verify_st_cut",
    "verify_cycle",
    "verify_e_cycle",
    "verify_bipartite",
};
static_assert(std::size(kQueryKindNames) == kQueryKindCount);

bool chaos_armed(const ServiceChaos& chaos) noexcept {
  return chaos.kill_prob > 0.0 || chaos.profile.drop_prob > 0.0 ||
         chaos.profile.dup_prob > 0.0 || chaos.profile.reorder_prob > 0.0 ||
         chaos.profile.corrupt_prob > 0.0;
}

}  // namespace

const char* query_kind_name(QueryKind kind) noexcept {
  const auto i = static_cast<std::size_t>(kind);
  return i < kQueryKindCount ? kQueryKindNames[i] : "unknown";
}

std::size_t estimate_query_bytes(std::size_t n, MachineId k) noexcept {
  // O(n) label/part/sketch words spread over the cluster plus per-machine
  // inbox/outbox/arena overhead. Coarse by design (see header).
  return n * 48 + static_cast<std::size_t>(k) * 8192;
}

ClusterService::ClusterService(const DistributedGraph& dg, ServiceConfig config)
    : dg_(&dg), config_(config) {
  if (config_.workers == 0) config_.workers = 1;
  if (config_.first_query_id != 0) next_id_ = config_.first_query_id;
  const unsigned qt = resolve_threads(config_.query_threads, config_.k);
  if (qt > 1) pool_ = std::make_unique<ThreadPool>(qt);
  executors_.reserve(config_.workers);
  for (unsigned w = 0; w < config_.workers; ++w) {
    executors_.emplace_back([this] { worker_loop(); });
  }
}

ClusterService::~ClusterService() {
  std::deque<Pending> orphans;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
    orphans.swap(queue_);
  }
  work_cv_.notify_all();
  for (Pending& job : orphans) {
    job.ticket->resolve(QueryOutcome::err(
        QueryError{QueryErrorCode::kCancelled, "service shut down before execution", 0, 0}));
  }
  for (auto& t : executors_) t.join();
}

std::shared_ptr<QueryTicket> ClusterService::submit(QueryRequest request,
                                                    std::uint64_t resubmit_id) {
  std::shared_ptr<QueryTicket> ticket;
  bool rejected = false;
  std::string reason;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t id;
    if (resubmit_id != 0) {
      id = resubmit_id;
      next_id_ = std::max(next_id_, resubmit_id + 1);
    } else {
      id = next_id_++;
    }
    ticket = std::shared_ptr<QueryTicket>(new QueryTicket(id));
    ++stats_.submitted;
    const std::size_t live = inflight_ + queue_.size();
    if (queue_.size() >= config_.max_queue) {
      rejected = true;
      reason = "admission: queue full";
    } else if (config_.budget.bytes_per_machine != 0) {
      const std::size_t per_machine =
          estimate_query_bytes(dg_->num_vertices(), config_.k) / config_.k;
      if ((live + 1) * per_machine > config_.budget.bytes_per_machine) {
        rejected = true;
        reason = "admission: memory budget exhausted";
      }
    }
    if (rejected) {
      ++stats_.rejected_overload;
    } else {
      ++stats_.admitted;
      // Journal AFTER admission, BEFORE execution: a process death between
      // this append and the completion record leaves the query pending,
      // which is exactly what replay() re-runs. Resubmissions already have
      // an S record from the first lifetime (replay dedups by id anyway).
      if (config_.journal != nullptr && resubmit_id == 0) {
        config_.journal->record_submitted(ticket->id(), request);
      }
      queue_.push_back(Pending{ticket->id(), std::move(request), ticket});
    }
  }
  if (rejected) {
    ticket->resolve(QueryOutcome::err(
        QueryError{QueryErrorCode::kOverloaded, std::move(reason), 0, 0}));
  } else {
    work_cv_.notify_one();
  }
  return ticket;
}

void ClusterService::worker_loop() {
  for (;;) {
    Pending job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_, nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
      ++inflight_;
    }
    QueryOutcome outcome = execute(job.request, job.id, &job.ticket->token_);
    finish(job, std::move(outcome), nullptr);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inflight_;
    }
    drain_cv_.notify_all();
  }
}

void ClusterService::finish(const Pending& job, QueryOutcome outcome,
                            std::unique_ptr<MetricsTimeline> timeline) {
  QueryLogEntry entry;
  entry.id = job.id;
  entry.kind = job.request.kind;
  if (outcome.ok()) {
    const QueryResult& r = outcome.value();
    entry.ok = true;
    entry.value = r.value;
    entry.verdict = r.verdict;
    entry.attempts = r.attempts;
    entry.supersteps = r.supersteps;
    entry.rounds = r.ledger.rounds;
    entry.bits = r.ledger.total_bits;
    entry.wall_us = r.wall_us;
    entry.backoff_us = r.backoff_us;
  } else {
    const QueryError& e = outcome.error();
    entry.error = e.code;
    entry.attempts = e.attempts;
    entry.supersteps = e.superstep;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (entry.ok) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
    log_.push_back(entry);
    if (timeline != nullptr) timelines_.emplace_back(job.id, std::move(timeline));
  }
  // Completion record BEFORE the ticket resolves: once a client observes
  // the outcome, a restart will not re-run the query.
  if (config_.journal != nullptr) config_.journal->record_completed(job.id, entry.ok);
  job.ticket->resolve(std::move(outcome));
}

QueryOutcome ClusterService::run_query(const QueryRequest& request, const CancelToken* token) {
  std::uint64_t id;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    id = next_id_++;
    ++stats_.submitted;
    ++stats_.admitted;
  }
  if (config_.journal != nullptr) config_.journal->record_submitted(id, request);
  QueryOutcome outcome = execute(request, id, token);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (outcome.ok()) {
      ++stats_.completed;
    } else {
      ++stats_.failed;
    }
  }
  if (config_.journal != nullptr) config_.journal->record_completed(id, outcome.ok());
  return outcome;
}

QueryOutcome ClusterService::execute(const QueryRequest& request, std::uint64_t id,
                                     const CancelToken* token) {
  if (std::optional<QueryError> invalid = validate(request)) {
    return QueryOutcome::err(std::move(*invalid));
  }
  QueryBudget budget = request.budget;  // zero fields inherit the default
  if (budget.deadline_ms == 0) budget.deadline_ms = config_.default_budget.deadline_ms;
  if (budget.max_supersteps == 0) budget.max_supersteps = config_.default_budget.max_supersteps;
  if (budget.max_ledger_bits == 0) {
    budget.max_ledger_bits = config_.default_budget.max_ledger_bits;
  }

  const ClusterConfig cluster_config =
      config_.bandwidth_bits != 0
          ? ClusterConfig{config_.k, config_.bandwidth_bits}
          : ClusterConfig::for_graph(std::max<std::size_t>(dg_->num_vertices(), 2),
                                     config_.k);
  const bool chaos = chaos_armed(config_.chaos);
  const std::uint64_t t0_ns = steady_now_ns();
  std::uint64_t deadline_abs_ns = 0;  // armed by the first attempt's CancelPoint
  std::uint64_t backoff_total_us = 0;

  for (unsigned attempt = 1;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.attempts;
      if (attempt > 1) ++stats_.retries;
    }
    CancelPoint cancel(token, budget);
    if (deadline_abs_ns != 0) {
      // ONE wall-clock deadline spans all retries — a killed-and-retried
      // query does not get its clock refreshed.
      cancel.set_deadline_ns(deadline_abs_ns);
    } else {
      deadline_abs_ns = cancel.deadline_ns();
    }

    Cluster cluster(cluster_config);  // fresh per attempt: ledger isolation
    std::optional<FaultSchedule> schedule;
    std::optional<FaultPlane> plane;
    if (chaos) {
      schedule.emplace(service_attempt_schedule(config_.chaos.seed, id, attempt,
                                                config_.chaos.kill_prob,
                                                config_.chaos.horizon, config_.k,
                                                config_.chaos.profile));
      if (schedule->has_crashes() || schedule->has_link_faults()) {
        // A silent attempt schedule attaches NO plane at all, so a surviving
        // attempt is bit-identical to an undisturbed run by construction.
        FaultPlaneConfig fault_config;
        fault_config.lethal_crashes = true;
        plane.emplace(*schedule, fault_config);
      }
    }
    std::unique_ptr<MetricsTimeline> timeline;
    ObsSink sink;
    if (config_.record_timelines) {
      timeline = std::make_unique<MetricsTimeline>();
      sink.timeline = timeline.get();
    }

    try {
      QueryResult result = dispatch(request, cluster, cancel,
                                    plane.has_value() ? &*plane : nullptr,
                                    timeline != nullptr ? &sink : nullptr);
      result.ledger = cluster.stats();
      result.supersteps = cancel.supersteps();
      result.attempts = attempt;
      result.backoff_us = backoff_total_us;
      result.wall_us = (steady_now_ns() - t0_ns) / 1000;
      if (timeline != nullptr) {
        std::lock_guard<std::mutex> lock(mutex_);
        timelines_.emplace_back(id, std::move(timeline));
      }
      return QueryOutcome(std::move(result));
    } catch (const QueryCancelled& cancelled) {
      return QueryOutcome::err(QueryError{
          cancelled.code, query_error_name(cancelled.code), cancelled.superstep, attempt});
    } catch (const QueryKilled& killed) {
      {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.kills;
      }
      if (attempt >= config_.retry.max_attempts) {
        return QueryOutcome::err(QueryError{QueryErrorCode::kCrashed,
                                            "injected crashes killed every attempt",
                                            killed.superstep, attempt});
      }
      const std::uint64_t backoff_us = retry_backoff_us(config_.retry, id, attempt);
      if (deadline_abs_ns != 0 && steady_now_ns() + backoff_us * 1000 > deadline_abs_ns) {
        // Backing off would outlive the deadline; fail structured now.
        return QueryOutcome::err(QueryError{QueryErrorCode::kDeadlineExceeded,
                                            "deadline would expire during retry backoff",
                                            killed.superstep, attempt});
      }
      backoff_total_us += backoff_us;
      std::this_thread::sleep_for(std::chrono::microseconds(backoff_us));
    }
  }
}

QueryResult ClusterService::dispatch(const QueryRequest& request, Cluster& cluster,
                                     CancelPoint& cancel, FaultPlane* plane,
                                     const ObsSink* obs) {
  QueryResult out;
  out.kind = request.kind;
  const RuntimeConfig runtime{config_.query_threads, obs, &cancel, pool_.get()};
  BoruvkaConfig base{runtime};
  base.seed = request.seed;
  base.fault = plane;
  switch (request.kind) {
    case QueryKind::kConnectivity: {
      const BoruvkaResult res = connected_components(cluster, *dg_, base);
      out.value = res.num_components;
      out.verdict = res.num_components <= 1;
      break;
    }
    case QueryKind::kMst: {
      const BoruvkaResult res =
          minimum_spanning_forest(cluster, *dg_, base, /*require_unique_weights=*/false);
      out.value = res.mst_edges().size();
      out.verdict = res.converged;
      break;
    }
    case QueryKind::kMinCut: {
      MinCutConfig mc;
      mc.seed = request.seed;
      mc.connectivity = base;
      const MinCutResult res = approximate_min_cut(cluster, *dg_, mc);
      out.value = res.estimate;
      out.verdict = res.graph_connected;
      break;
    }
    case QueryKind::kTwoEdge: {
      const TwoEdgeResult res = two_edge_connectivity(cluster, *dg_, base);
      out.value = res.certificate_edges;
      out.verdict = res.two_edge_connected;
      break;
    }
    case QueryKind::kFlooding: {
      FloodingConfig fc{runtime};
      fc.fault = plane;
      const FloodingResult res = flooding_connectivity(cluster, *dg_, fc);
      out.value = res.num_components;
      out.verdict = res.num_components <= 1;
      break;
    }
    case QueryKind::kRefereeConnectivity: {
      const RefereeResult res = referee_connectivity(cluster, *dg_, RefereeConfig{runtime});
      out.value = res.num_components;
      out.verdict = res.num_components <= 1;
      break;
    }
    case QueryKind::kLeaderElection: {
      const LeaderResult res = elect_leader(cluster, LeaderElectionConfig{runtime, request.seed});
      out.value = res.leader;
      out.verdict = true;
      break;
    }
    case QueryKind::kVerifySpanningSubgraph: {
      const VerifyResult res =
          verify_spanning_connected_subgraph(cluster, *dg_, request.edges, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
    case QueryKind::kVerifyCut: {
      const VerifyResult res = verify_cut(cluster, *dg_, request.edges, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
    case QueryKind::kVerifyStConnectivity: {
      const VerifyResult res =
          verify_st_connectivity(cluster, *dg_, request.s, request.t, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
    case QueryKind::kVerifyEdgeOnAllPaths: {
      const VerifyResult res = verify_edge_on_all_paths(cluster, *dg_, request.s, request.t,
                                                        request.x, request.y, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
    case QueryKind::kVerifyStCut: {
      const VerifyResult res =
          verify_st_cut(cluster, *dg_, request.s, request.t, request.edges, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
    case QueryKind::kVerifyCycle: {
      const VerifyResult res = verify_cycle_containment(cluster, *dg_, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
    case QueryKind::kVerifyECycle: {
      const VerifyResult res =
          verify_e_cycle_containment(cluster, *dg_, request.x, request.y, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
    case QueryKind::kVerifyBipartite: {
      const VerifyResult res = verify_bipartiteness(cluster, *dg_, base);
      out.value = res.components;
      out.verdict = res.ok;
      break;
    }
  }
  return out;
}

std::optional<QueryError> ClusterService::validate(const QueryRequest& request) const {
  const std::size_t n = dg_->num_vertices();
  const auto invalid = [](std::string message) {
    return QueryError{QueryErrorCode::kInvalidArgument, std::move(message), 0, 0};
  };
  const auto kind = static_cast<std::size_t>(request.kind);
  if (kind >= kQueryKindCount) return invalid("unknown query kind");
  const auto vertex_ok = [n](Vertex v) { return static_cast<std::size_t>(v) < n; };
  switch (request.kind) {
    case QueryKind::kVerifyStConnectivity:
    case QueryKind::kVerifyStCut:
      if (!vertex_ok(request.s) || !vertex_ok(request.t)) {
        return invalid("s/t vertex out of range");
      }
      break;
    case QueryKind::kVerifyEdgeOnAllPaths:
      if (!vertex_ok(request.s) || !vertex_ok(request.t) || !vertex_ok(request.x) ||
          !vertex_ok(request.y)) {
        return invalid("s/t/x/y vertex out of range");
      }
      if (!dg_->has_edge(request.x, request.y)) {
        return invalid("edge (x, y) not present in G");
      }
      break;
    case QueryKind::kVerifyECycle:
      if (!vertex_ok(request.x) || !vertex_ok(request.y)) {
        return invalid("x/y vertex out of range");
      }
      if (!dg_->has_edge(request.x, request.y)) {
        return invalid("edge (x, y) not present in G");
      }
      break;
    default:
      break;
  }
  switch (request.kind) {
    case QueryKind::kVerifySpanningSubgraph:
    case QueryKind::kVerifyCut:
    case QueryKind::kVerifyStCut:
      for (const auto& [u, v] : request.edges) {
        if (!vertex_ok(u) || !vertex_ok(v)) return invalid("edge endpoint out of range");
        if (request.kind == QueryKind::kVerifySpanningSubgraph && !dg_->has_edge(u, v)) {
          return invalid("subgraph edge not present in G");
        }
      }
      break;
    default:
      break;
  }
  return std::nullopt;
}

void ClusterService::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drain_cv_.wait(lock, [&] { return queue_.empty() && inflight_ == 0; });
}

ServiceStats ClusterService::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

std::vector<QueryLogEntry> ClusterService::log() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return log_;
}

const MetricsTimeline* ClusterService::timeline(std::uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [tid, tl] : timelines_) {
    if (tid == id) return tl.get();
  }
  return nullptr;
}

bool ClusterService::write_query_log_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const std::vector<QueryLogEntry> entries = log();
  const ServiceStats s = stats();
  std::fprintf(out, "{\n  \"queries\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const QueryLogEntry& e = entries[i];
    std::fprintf(out,
                 "    {\"id\": %llu, \"kind\": \"%s\", \"ok\": %s, \"error\": \"%s\", "
                 "\"value\": %llu, \"verdict\": %s, \"attempts\": %u, "
                 "\"supersteps\": %llu, \"rounds\": %llu, \"bits\": %llu, "
                 "\"wall_us\": %llu, \"backoff_us\": %llu}%s\n",
                 static_cast<unsigned long long>(e.id), query_kind_name(e.kind),
                 e.ok ? "true" : "false", e.ok ? "" : query_error_name(e.error),
                 static_cast<unsigned long long>(e.value), e.verdict ? "true" : "false",
                 e.attempts, static_cast<unsigned long long>(e.supersteps),
                 static_cast<unsigned long long>(e.rounds),
                 static_cast<unsigned long long>(e.bits),
                 static_cast<unsigned long long>(e.wall_us),
                 static_cast<unsigned long long>(e.backoff_us),
                 i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out,
               "  ],\n  \"stats\": {\"submitted\": %llu, \"admitted\": %llu, "
               "\"rejected_overload\": %llu, \"completed\": %llu, \"failed\": %llu, "
               "\"attempts\": %llu, \"kills\": %llu, \"retries\": %llu}\n}\n",
               static_cast<unsigned long long>(s.submitted),
               static_cast<unsigned long long>(s.admitted),
               static_cast<unsigned long long>(s.rejected_overload),
               static_cast<unsigned long long>(s.completed),
               static_cast<unsigned long long>(s.failed),
               static_cast<unsigned long long>(s.attempts),
               static_cast<unsigned long long>(s.kills),
               static_cast<unsigned long long>(s.retries));
  std::fclose(out);
  return true;
}

}  // namespace kmm
