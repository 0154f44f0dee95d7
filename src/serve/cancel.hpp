#pragma once
// Cooperative cancellation and per-query budgets for the serving layer.
//
// The seam mirrors obs: a nullable CancelPoint* rides RuntimeConfig::cancel,
// which every core config inherits, and Runtime::step calls
// CancelPoint::check() on the driver thread at the top of every superstep —
// before fault processing, before any handler runs. A tripped check throws
// QueryCancelled; stack unwinding through the engine releases
// all pooled arenas, registries and sketch state (they are RAII members of
// stack-local engines), so a cancelled query is gone within one superstep
// and the process keeps serving. Nothing in this header ever aborts.
//
// Budget semantics (0 = unlimited for every field):
//   * deadline_ms      — wall-clock, armed at CancelPoint construction (or
//                        overridden with an absolute instant so one deadline
//                        spans a query's retries). Wall time decides WHEN a
//                        query dies, never what any surviving run computes:
//                        the ledger of a completed query is untouched.
//   * max_supersteps   — runtime steps driven for this query, counted across
//                        every Runtime the query builds (mincut's inner
//                        connectivity runs, two-edge's phases, ...). Purely
//                        structural, so budget kills are deterministic.
//   * max_ledger_bits  — cross-machine wire bits charged to the query's
//                        cluster since the first check (the Sanders/Schimek
//                        exchange-dominated-cost lens: bound the traffic,
//                        not the time).
//
// One CancelPoint serves exactly one query attempt end to end; it is not
// thread-safe and lives on the executing thread. The CancelToken it watches
// IS thread-safe — any thread may cancel() it at any time, and the query
// unwinds at its next superstep boundary.

#include <atomic>
#include <cstdint>

#include "cluster/cluster.hpp"

namespace kmm {

/// Structured reasons a query returns without a result. Every value maps to
/// a QueryError the service hands back — never an abort.
enum class QueryErrorCode : std::uint8_t {
  kCancelled,         // CancelToken fired (client hung up / shed load)
  kDeadlineExceeded,  // QueryBudget::deadline_ms elapsed
  kSuperstepLimit,    // QueryBudget::max_supersteps reached
  kLedgerBudget,      // QueryBudget::max_ledger_bits exceeded
  kOverloaded,        // admission controller rejected the query
  kCrashed,           // injected crashes killed every retry attempt
  kInvalidArgument,   // request references vertices/edges outside the graph
};

[[nodiscard]] const char* query_error_name(QueryErrorCode code) noexcept;

/// Thread-safe cancellation flag shared between a query's client and its
/// executor. cancel() may be called from any thread, any number of times.
class CancelToken {
 public:
  void cancel() noexcept { cancelled_.store(true, std::memory_order_release); }
  [[nodiscard]] bool cancelled() const noexcept {
    return cancelled_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<bool> cancelled_{false};
};

struct QueryBudget {
  std::uint64_t deadline_ms = 0;      // wall-clock deadline; 0 = none
  std::uint64_t max_supersteps = 0;   // runtime steps (incl. free); 0 = unlimited
  std::uint64_t max_ledger_bits = 0;  // cross-machine wire bits; 0 = unlimited
};

/// Thrown by CancelPoint::check at a superstep boundary; caught by the
/// serving layer (or any caller that armed a CancelPoint directly) and
/// converted into a structured QueryError. `superstep` is the query-global
/// step ordinal at which the run unwound.
struct QueryCancelled {
  QueryErrorCode code = QueryErrorCode::kCancelled;
  std::uint64_t superstep = 0;
};

/// The per-query check the runtime consults at every superstep boundary.
/// Borrowed by RuntimeConfig::cancel exactly like the obs sinks; null never
/// cancels and costs one branch per step.
class CancelPoint {
 public:
  explicit CancelPoint(const CancelToken* token = nullptr, QueryBudget budget = {});

  /// Replace the deadline with an absolute steady-clock instant (ns). The
  /// service uses this so ONE deadline spans all retry attempts of a query
  /// instead of rearming per attempt. 0 disarms the deadline.
  void set_deadline_ns(std::uint64_t abs_ns) noexcept { deadline_ns_ = abs_ns; }
  [[nodiscard]] std::uint64_t deadline_ns() const noexcept { return deadline_ns_; }

  /// Deterministic test/bench trigger: behave as if the token fired at the
  /// start of superstep `step` — no wall clock involved, so cancellation
  /// tests replay bit-identically.
  void cancel_at_superstep(std::uint64_t step) noexcept { cancel_at_ = step; }

  /// Called by Runtime::step on the driver thread before anything else.
  /// Throws QueryCancelled when the token fired or a budget is exhausted;
  /// otherwise counts the step and returns.
  void check(const Cluster& cluster);

  /// Steps this query has driven so far (across all its Runtimes).
  [[nodiscard]] std::uint64_t supersteps() const noexcept { return steps_; }

 private:
  const CancelToken* token_;  // borrowed; may be null
  QueryBudget budget_;
  std::uint64_t deadline_ns_ = 0;  // absolute steady-clock ns; 0 = none
  std::uint64_t cancel_at_ = ~std::uint64_t{0};
  std::uint64_t steps_ = 0;
  std::uint64_t bits0_ = 0;  // ledger baseline, captured at the first check
  bool baselined_ = false;
};

}  // namespace kmm
