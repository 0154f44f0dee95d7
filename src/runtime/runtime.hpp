#pragma once
// Thread-parallel superstep driver for the k-machine simulator.
//
// The Cluster charges rounds by the most-loaded link, but executing all k
// machines' local computation on one thread makes wall-clock time scale
// with *total* work. The Runtime closes that gap twice over: it runs the k
// per-machine handlers of a superstep on a worker pool, each writing to a
// private per-source outbox shard bucketed by destination, then — after a
// barrier — delivers the shards through the Cluster's per-destination
// delivery plane (deliver_shards_begin / deliver_shard_to /
// deliver_shards_finish): k independent delivery tasks, one per destination,
// each moving its buckets straight into its inbox, with the ledger reduced
// deterministically afterwards. Both halves of the superstep — compute and
// delivery — parallelize. Every step takes this one path; a step without a
// pool (threads = 1, or StepMode::kInline) runs the same handler and
// delivery tasks in machine order on the calling thread.
//
// Invariant (tested by tests/test_runtime.cpp and tests/test_delivery.cpp):
// the ClusterStats ledger — rounds, supersteps, messages, bits, per-link
// maxima, per-machine traffic, cut bits — is bit-identical for every thread
// count, including threads=1, because
//   * destination d's delivery task walks the shards' d-buckets in
//     ascending source order (per-machine send order preserved), so inbox
//     d's order is (source, send order) however the handlers interleaved,
//     and
//   * the ledger reduction tree-folds the sparse per-destination link
//     partials pairwise, and every reduced quantity is an unsigned sum or
//     maximum of per-link values — so the fold order cannot change a ledger
//     bit (see cluster.hpp for the delivery contract).
//
// threads semantics: 1 = no pool, every step runs its handler and delivery
// tasks inline on the calling thread; 0 = hardware concurrency; any value is
// clamped to k (more workers than machines cannot help).
//
// ---------------------------------------------------------------------------
// Porting recipe: Cluster loop -> SuperstepFn
//
// An algorithm written as the classic round loop — for each machine:
// compute and send; deliver; for each machine: read the inbox — maps onto
// the Runtime mechanically (FloodProgram in core/flood_program.hpp is the
// worked example: its whole iteration is one checkpointable handler):
//
//   1. Each "for each machine: compute + send" loop body becomes one
//      handler — a MachineProgram::on_superstep, or an ad-hoc SuperstepFn
//      for rt.step([&](MachineId i, inbox, out) {...}). The handler sends
//      through `out` (src is pinned to i) and the step delivers everything
//      sent once all k handlers have run.
//   2. The "read inboxes" loop moves into the NEXT step's handler — the
//      inbox span a handler receives is exactly what the previous step
//      delivered to machine i. A read-only step that sends nothing is a
//      free superstep (no ledger effect), so pure collection/local-compute
//      steps cost nothing.
//   3. Shared state must become machine-owned: machine i's state is
//      written only by handler i. State a handler writes every superstep
//      lives in per-machine storage — one allocation per machine, indexed
//      by a hosted vertex's slot (its position in vertices_of(i)) — not in
//      n-long per-vertex arrays indexed by vertex id: under a random
//      partition those interleave the machines' cells, so each handler's
//      accesses scatter over the whole array and cache lines bounce between
//      threads. FloodProgram is the model (per-machine slot-indexed labels
//      and changed flags, a home(v) == i check on the receive path): moving
//      them out of two shared n-long vectors cut perfbench flood-durable's
//      runtime.handler_ms from 570 to 345 ms per pass (150x150 grid, k =
//      16, 4 threads, 4 cores). Per-component state follows the machines that
//      hold the component: the Borůvka engine keeps a component's finished
//      flag on each machine's part entry, read and written only by the
//      machines holding a part of it. Whole-cluster state (the Borůvka
//      phase trace's label count) is read only between steps, on the
//      driving thread.
//   4. One-word control-plane steps (OR/sum reduces, verdict broadcasts,
//      single-machine referee solves) pass StepMode::kInline — the pool
//      dispatch would cost more than the handler work, and the modes are
//      observationally identical anyway.
//   5. Derive the public entry point's config from RuntimeConfig (as
//      BoruvkaConfig does) and build one Runtime(cluster, config) per run:
//      the threads, obs, cancel and pool knobs then reach the Runtime
//      without being copied field by field.
//   6. Handlers must not assume inboxes are populated between shards:
//      delivery runs as k concurrent per-destination tasks after the
//      handler barrier, so during a step the only readable inbox state is
//      the span the handler was given (the *previous* step's delivery,
//      complete by construction). Never stash a Cluster::inbox() span or a
//      Message::payload() span across steps — both are recycled when the
//      next delivery begins — and never poke another machine's inbox from
//      a handler.
//   7. To stay observable, route every superstep through Runtime::step —
//      the only code that sends or delivers messages, and where the obs
//      plane (src/obs/) hangs its hooks — so a port that obeys rules 1-6
//      gets per-superstep metrics rows and trace spans for free through
//      config.obs with no code of its own. What a port must NOT do: drive
//      the Cluster's deliver_shards_* protocol itself (the delivery escapes
//      both the timeline row and the phase timers), busy-loop
//      inside a handler waiting on cross-machine state (a handler span is
//      assumed to be pure local compute), or hold a pointer to the obs
//      sinks' output mid-run (rows and rings reallocate/wrap). Analytic
//      Cluster::charge_rounds() between steps is fine — the timeline folds
//      the charge into the next recorded row.
//   8. To survive the fault plane (src/fault/, the Runtime constructor's
//      third argument), a program must be a persistent MachineProgram that
//      overrides checkpointable() -> true plus snapshot(m, WordWriter&)/
//      restore(m, WordReader&) such that restore rebuilds machine m's state
//      *exactly* from the words snapshot wrote (and consumes all of them).
//      The plane then checkpoints every C steps and replays crashed
//      machines through their logged inboxes, and the same snapshots become
//      durable resume frames (rule 10). Serialize everything a handler
//      reads across steps — including the program's position: which
//      segment, phase and iteration comes next is per-machine data, never
//      driver-loop state, so a handler's next position follows from its
//      own state and inbox alone (FloodProgram and the Borůvka engine are
//      the two examples) — and nothing that is rebuilt within one step
//      (scratch buffers, per-step accumulators, tables derived from the
//      position such as a sketch builder bound to the iteration's seed).
//      A crash injected into any other program aborts with a pointer to
//      this rule. Only the configs of engines that recover (BoruvkaConfig,
//      FloodingConfig) declare a `fault` field; every other entry point
//      builds its Runtime from a RuntimeConfig, which cannot carry a plane.
//   9. Cancellation points and state-release obligations. When a
//      CancelPoint rides RuntimeConfig::cancel (the serving layer's seam,
//      src/serve/cancel.hpp), Runtime::step calls check() on the driver
//      thread BEFORE fault processing and before any handler runs — the
//      only cancellation point there is. A tripped check throws
//      QueryCancelled through step() and out of the program's driving code,
//      so a MachineProgram must satisfy two obligations to be servable:
//      (a) every resource a run acquires must be released by unwinding —
//          keep engine state (registries, sketch pools, arenas, scratch) in
//          RAII members of a stack-local engine/driver and borrow
//          cross-object attachments (obs sinks, the fault plane, the
//          cancel point) for the run's lifetime only; never leave a raw
//          registration behind that outlives the throw;
//      (b) handlers must NOT contain their own blocking or cancellation
//          logic — a handler span is pure local compute (rule 7) and is
//          never interrupted mid-step; cancellation granularity is exactly
//          one superstep, which also preserves the cluster invariant that
//          an unwound run leaves no half-delivered superstep behind.
//      Programs that obey rules 1-8 get rule 9 for free: all src/core/
//      engines are stack-constructed per run and release everything on
//      unwind. The cluster a cancelled query ran on still holds delivered
//      inboxes and its partial ledger; the serving layer isolates queries
//      by giving each attempt a fresh Cluster and discarding it on
//      cancellation rather than scrubbing state in place.
//  10. Resumable-state versioning (the durable plane, src/durable/). A
//      checkpointable program's snapshots may outlive the process: with a
//      DurableStore attached to the fault plane, every cadence checkpoint
//      is committed to disk as a resume frame, and a restarted process
//      restores it mid-computation. That makes the snapshot word layout an
//      on-disk FORMAT, so a resumable program must declare its layout
//      version by overriding MachineProgram::state_version() and bump it
//      on ANY change to what snapshot() writes or how restore() reads it
//      (field order, widths, meaning — not just size). The version is
//      stamped into every frame; RecoveryManager rejects mismatches as
//      structured kStateVersionMismatch errors instead of misdecoding a
//      stale generation. Treat restore() as a decoder of disk bytes: a
//      checksummed frame can still carry any word, so reject out-of-range
//      words with a KMM_CHECK that names the field. A resumed process
//      restores the frame inside its first Runtime::step, after the driver
//      loop's last chance to act, so the driver may only do work keyed on
//      the position a step left (the Borůvka engine's randomness charge
//      and phase trace); the frame's ledger already holds every charge made
//      before it was taken. Durable resume additionally relies on rules
//      1-6: the frame captures (state, inbox, ledger, ordinal) at a
//      superstep boundary, and bit-identical continuation holds only
//      because re-execution from that boundary is deterministic in
//      everything but thread count.
//
// Because delivery walks the shards in ascending source order, each inbox
// receives a ported algorithm's messages in the order of the original loop:
// the ledger is unchanged by the port AND thread-invariant afterwards
// (enforced repo-wide by tests/test_runtime.cpp).
// ---------------------------------------------------------------------------

#include <concepts>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "cluster/cluster.hpp"
#include "obs/obs_sink.hpp"
#include "runtime/machine_program.hpp"
#include "runtime/outbox.hpp"
#include "util/thread_pool.hpp"

namespace kmm {

class FaultPlane;
class CancelPoint;

/// The runtime knobs every entry point shares. Each core config derives
/// from it (BoruvkaConfig, FloodingConfig, ...), so an entry point builds
/// its Runtime straight from the config it was given.
struct RuntimeConfig {
  /// Worker threads for per-machine handlers and delivery tasks. 1 = no
  /// pool (every step runs inline on the calling thread),
  /// 0 = std::thread::hardware_concurrency(), clamped to the cluster's k.
  unsigned threads = 1;
  /// Optional observability sinks (metrics timeline / span trace recorder);
  /// null (the default) records nothing and costs one branch per step. The
  /// sinks are borrowed — the caller keeps them alive for the Runtime's
  /// lifetime. See src/obs/obs_sink.hpp for the contract.
  const ObsSink* obs = nullptr;
  /// Optional cooperative cancellation point (src/serve/cancel.hpp),
  /// borrowed like the obs sinks. When attached, every step() begins with
  /// CancelPoint::check() on the driver thread — deadline, superstep and
  /// ledger budgets, and client cancellation all unwind the run by throwing
  /// QueryCancelled at that boundary (porting recipe rule 9). Null never
  /// cancels and costs one branch per step.
  CancelPoint* cancel = nullptr;
  /// Optional shared worker pool. Null (the default): the Runtime owns a
  /// private pool when threads > 1, exactly as before. Non-null: the
  /// Runtime borrows this pool for its parallel steps instead — the
  /// serving layer's multiplexing seam, where many concurrent queries'
  /// Runtimes time-slice one pool at superstep granularity (ThreadPool
  /// serializes whole parallel_for invocations). The pool must outlive the
  /// Runtime; effective concurrency is clamped to min(threads, pool size,
  /// k). Ignored when the resolved thread count is 1.
  ThreadPool* pool = nullptr;
};

/// The thread-count resolution every Runtime applies: 0 expands to
/// hardware concurrency, then the result is clamped to [1, k]. Exposed so
/// CLIs and benches can report the effective concurrency of a run.
[[nodiscard]] unsigned resolve_threads(unsigned requested, MachineId k);

/// Signature of an ad-hoc superstep handler (see Runtime::step overload).
/// The templated step() accepts any callable with this shape directly — a
/// std::function is never materialized on the hot path.
using SuperstepFn = std::function<void(MachineId, std::span<const Message>, Outbox&)>;

namespace detail {

/// Borrows an ad-hoc handler as a MachineProgram for one step — a stack
/// adapter, so dispatching a lambda superstep allocates nothing. It is not
/// checkpointable: a fault plane aborts on a crash in such a step (rule 8).
template <typename Fn>
class FnProgram final : public MachineProgram {
 public:
  explicit FnProgram(Fn& fn) noexcept : fn_(&fn) {}
  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override {
    (*fn_)(self, inbox, out);
  }

 private:
  Fn* fn_;
};

}  // namespace detail

/// Per-step execution choice. Both modes run the same handler and delivery
/// tasks and only differ in where they run, so they are observationally
/// identical — a program may pick per step without affecting results or the
/// ledger. kInline skips the pool dispatch and is the right call for
/// control-plane steps (applying one-word directives, counter updates)
/// whose handler work is far below the dispatch cost.
enum class StepMode {
  kParallel,  // use the worker pool when threads > 1
  kInline,    // always run handlers and delivery on the calling thread
};

class Runtime {
 public:
  /// `plane` is the optional fault-injection & recovery plane
  /// (src/fault/fault_plane.hpp), borrowed like the obs sinks; null (the
  /// default) is bit-identical to a build without the plane. When attached,
  /// transit faults are emulated on the shard buckets between the handlers
  /// and delivery, so a detached-vs-attached ledger only differs by the
  /// schedule's injected faults. Only engines that can recover pass one
  /// (porting recipe rule 8).
  explicit Runtime(Cluster& cluster, const RuntimeConfig& config = {},
                   FaultPlane* plane = nullptr);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] Cluster& cluster() noexcept { return *cluster_; }
  [[nodiscard]] const Cluster& cluster() const noexcept { return *cluster_; }
  [[nodiscard]] MachineId k() const noexcept { return cluster_->k(); }
  /// Effective concurrency after resolving 0 and clamping to k.
  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Execute one superstep of `program` across all machines, then deliver
  /// the shards (both concurrently when threads > 1 and mode is kParallel).
  /// Returns the rounds charged. A superstep in which no handler sends is
  /// free.
  std::uint64_t step(MachineProgram& program, StepMode mode = StepMode::kParallel);

  /// Same, with an ad-hoc handler — the porting seam for short algorithms
  /// written as explicit superstep sequences (the verifiers' and
  /// referee's exchanges, sum_reduce_broadcast); such a driver keeps its
  /// position on the C++ stack, so it cannot recover from a crash (rule 8).
  /// The callable is borrowed for the duration of the call; no
  /// std::function is constructed, keeping the dispatch allocation-free.
  template <typename Fn>
    requires std::invocable<Fn&, MachineId, std::span<const Message>, Outbox&>
  std::uint64_t step(Fn&& fn, StepMode mode = StepMode::kParallel) {
    detail::FnProgram<std::remove_reference_t<Fn>> program(fn);
    return step(program, mode);
  }

 private:
  /// Feed one finished step's phase durations to every consumer: the
  /// process-wide phase totals (always) and the attached sinks (when any).
  std::uint64_t finish_step(StepMode mode, std::uint64_t handler_ns,
                            std::uint64_t deliver_ns, std::uint64_t reduce_ns,
                            std::uint64_t span_begin_ns, std::uint64_t rounds);

  Cluster* cluster_;
  unsigned threads_;
  ObsSink sink_;                      // copied from config; empty = record nothing
  FaultPlane* fault_;                 // borrowed; null = plane detached
  CancelPoint* cancel_;               // borrowed; null = never cancels
  std::uint64_t step_ordinal_ = 0;    // steps driven by this Runtime (incl. free)
  std::unique_ptr<ThreadPool> owned_pool_;  // private pool when none was borrowed
  ThreadPool* pool_ = nullptr;        // owned_pool_.get() or the borrowed pool
  std::vector<OutboxShard> shards_;   // per-source buffers + arenas, reused
};

}  // namespace kmm
