#include "runtime/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "fault/fault_plane.hpp"
#include "obs/metrics_timeline.hpp"
#include "serve/cancel.hpp"
#include "obs/trace_recorder.hpp"
#include "runtime/phase_timers.hpp"
#include "util/assert.hpp"

namespace kmm {

namespace {
inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
}  // namespace

unsigned resolve_threads(unsigned requested, MachineId k) {
  unsigned t = requested;
  if (t == 0) t = std::max(1u, std::thread::hardware_concurrency());
  return std::min<unsigned>(t, k);
}

Runtime::Runtime(Cluster& cluster, const RuntimeConfig& config, FaultPlane* plane)
    : cluster_(&cluster),
      threads_(resolve_threads(config.threads, cluster.k())),
      sink_(config.obs != nullptr ? *config.obs : ObsSink{}),
      fault_(plane),
      cancel_(config.cancel) {
  // Baseline the timeline before the first step so row 0's delta starts at
  // this Runtime's construction (idempotent across sequential Runtimes
  // reusing one sink on one cluster).
  if (sink_.timeline != nullptr) sink_.timeline->attach(*cluster_);
  if (threads_ > 1) {
    if (config.pool != nullptr) {
      // Borrowed shared pool (the serving layer's multiplexing seam): clamp
      // the reported concurrency to what the pool can actually provide.
      pool_ = config.pool;
      threads_ = std::min(threads_, pool_->size());
      if (threads_ <= 1) pool_ = nullptr;
    } else {
      owned_pool_ = std::make_unique<ThreadPool>(threads_);
      pool_ = owned_pool_.get();
    }
  }
  shards_.resize(cluster_->k());
  for (auto& shard : shards_) shard.resize(cluster_->k());
}

Runtime::~Runtime() = default;

std::uint64_t Runtime::finish_step(StepMode mode, std::uint64_t handler_ns,
                                   std::uint64_t deliver_ns, std::uint64_t reduce_ns,
                                   std::uint64_t span_begin_ns, std::uint64_t rounds) {
  add_phase_times(handler_ns, deliver_ns, reduce_ns);
  if (fault_ != nullptr && sink_.timeline != nullptr) {
    // Bank this step's injected-fault count before the row is cut so a
    // charged step's row carries its own fault events.
    sink_.timeline->note_fault_events(fault_->take_step_events());
  }
  if (sink_.timeline != nullptr) {
    sink_.timeline->on_superstep(*cluster_, handler_ns, deliver_ns, reduce_ns);
  }
  if (sink_.trace != nullptr) {
    // The step's top-level span, on the driving thread's lane.
    sink_.trace->record(0,
                        mode == StepMode::kInline ? SpanKind::kInline : SpanKind::kSuperstep,
                        step_ordinal_, 0, span_begin_ns, sink_.trace->now_ns());
  }
  if (fault_ != nullptr) fault_->end_step();
  ++step_ordinal_;
  return rounds;
}

std::uint64_t Runtime::step(MachineProgram& program, StepMode mode) {
  if (cancel_ != nullptr) {
    // The query's only cancellation point (porting recipe rule 9): on the
    // driver thread, before fault processing and before any handler runs.
    // check() throws QueryCancelled when a budget tripped or the client
    // cancelled; unwinding releases the engine's pooled state via RAII and
    // leaves no half-delivered superstep behind.
    cancel_->check(*cluster_);
  }
  const MachineId k = cluster_->k();
  TraceRecorder* const tr = sink_.trace;
  // Span timestamps must sit on the recorder's rebased clock; phase
  // durations are differences, so either clock serves them.
  const auto tick = [tr]() noexcept { return tr != nullptr ? tr->now_ns() : now_ns(); };
  if (fault_ != nullptr) {
    // Crash injection + rollback/replay happens before any handler runs, so
    // the step below executes against fully recovered machine state.
    const std::uint64_t rb = tick();
    const std::size_t victims = fault_->begin_step(*cluster_, program);
    if (victims > 0 && tr != nullptr) {
      tr->record(0, SpanKind::kRecovery, step_ordinal_,
                 static_cast<std::uint32_t>(victims), rb, tr->now_ns());
    }
  }
  const std::uint64_t t0 = tick();
  const bool parallel = pool_ != nullptr && mode != StepMode::kInline;
  // Every handler owns shard i; inboxes are read-only until the handlers
  // finish, after which the k per-destination delivery tasks move the
  // buckets straight into their inboxes — one move per message — and the
  // finish call reduces the ledger partials. Parallel steps run both task
  // sets on the pool; inline steps run them in machine order on this thread.
  const std::uint64_t deadline_ns =
      fault_ != nullptr ? fault_->handler_deadline_ns() : 0;
  const auto run_handler = [&](std::size_t i) {
    const auto self = static_cast<MachineId>(i);
    const std::uint64_t hb = tr != nullptr ? tr->now_ns() : 0;
    shards_[i].clear();  // buckets and arena capacity retained from last step
    Outbox out(shards_[i], self, k);
    const std::uint64_t wb = deadline_ns != 0 ? now_ns() : 0;
    program.on_superstep(self, cluster_->inbox(self), out);
    if (deadline_ns != 0 && now_ns() - wb > deadline_ns) {
      // Wall-clock watchdog: diagnostic only — never touches the ledger
      // (simulated hangs are injected deterministically via
      // FaultSchedule::add_hang instead).
      fault_->note_deadline_overrun();
    }
    if (tr != nullptr) {
      tr->record(ThreadPool::current_lane(), SpanKind::kHandler, step_ordinal_, self, hb,
                 tr->now_ns());
    }
  };
  if (parallel) {
    pool_->parallel_for(k, run_handler);
  } else {
    for (MachineId i = 0; i < k; ++i) run_handler(i);
  }
  const std::uint64_t t1 = tick();
  if (fault_ != nullptr) {
    // Transit emulation: drops/duplicates burn bandwidth, reorders shuffle
    // within a link, corruptions flip payload bits — then the retransmit
    // protocol (per-link sequence numbers + dedup) restores the exact
    // fault-free inbox contents before delivery.
    fault_->apply_link_faults(*cluster_, shards_);
  }
  cluster_->deliver_shards_begin(shards_);
  const auto run_delivery = [&](std::size_t i) {
    const std::uint64_t db = tr != nullptr ? tr->now_ns() : 0;
    cluster_->deliver_shard_to(static_cast<MachineId>(i));
    if (tr != nullptr) {
      tr->record(ThreadPool::current_lane(), SpanKind::kDeliver, step_ordinal_,
                 static_cast<std::uint32_t>(i), db, tr->now_ns());
    }
  };
  if (parallel) {
    pool_->parallel_for(k, run_delivery);
  } else {
    for (MachineId i = 0; i < k; ++i) run_delivery(i);
  }
  const std::uint64_t t2 = tick();
  const std::uint64_t rounds = cluster_->deliver_shards_finish();
  const std::uint64_t t3 = tick();
  if (tr != nullptr) tr->record(0, SpanKind::kReduce, step_ordinal_, 0, t2, t3);
  return finish_step(mode, elapsed_ns(t0, t1), elapsed_ns(t1, t2), elapsed_ns(t2, t3), t0,
                     rounds);
}

std::uint64_t Runtime::run(MachineProgram& program, std::uint64_t max_supersteps) {
  std::uint64_t rounds = 0;
  for (std::uint64_t s = 0; s < max_supersteps; ++s) {
    if (program.done()) return rounds;
    rounds += step(program);
  }
  KMM_CHECK_MSG(program.done(), "program exhausted its superstep budget");
  return rounds;
}

}  // namespace kmm
