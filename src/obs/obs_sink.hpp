#pragma once
// Observability seam between the superstep runtime and its (optional)
// recording sinks.
//
// The Runtime is the single place where every interesting boundary of a
// run is visible — superstep begin/end, per-machine handler execution,
// per-destination delivery tasks, the ledger reduction — but by default it
// must record nothing: the k-machine ledger experiments are timing-free
// and the hot path is allocation-free. An ObsSink is a nullable pair of
// pointers set on RuntimeConfig::obs — the base of every algorithm config
// (BoruvkaConfig, FloodingConfig, ...) — and read by Runtime::step:
//
//   * timeline — a MetricsTimeline recording one row per *ledger*
//     superstep: the ClusterStats delta (messages, bits, per-link maximum,
//     cut bits, per-machine traffic), the handler/deliver/reduce phase
//     nanoseconds, and the alloc-count delta. The per-run analogue of the
//     process-wide runtime_phase_totals() aggregate (which is now a
//     compatibility shim over the same per-step record).
//   * trace    — a TraceRecorder capturing begin/end spans of handler
//     chunks, deliver_shard_to(d) tasks, the ledger reduction, and inline
//     control-plane steps into per-worker ring buffers, exportable as
//     Chrome trace-event JSON (chrome://tracing / Perfetto).
//
// Either pointer may be null independently; a null ObsSink* costs one
// branch per superstep. Both sinks are owned by the caller (CLI, bench,
// test) and must outlive every Runtime they are handed to. A sink must not
// be shared by two Runtimes *running concurrently* — sequential reuse
// (e.g. min-cut's inner connectivity runs on one cluster) is the intended
// way to get a whole-run timeline.

#include <cstdint>

namespace kmm {

class MetricsTimeline;
class TraceRecorder;

struct ObsSink {
  MetricsTimeline* timeline = nullptr;
  TraceRecorder* trace = nullptr;

  [[nodiscard]] bool empty() const noexcept {
    return timeline == nullptr && trace == nullptr;
  }
};

namespace obs {

/// Source of the timeline's alloc-count column. The library itself cannot
/// count allocations (replacing global operator new belongs to exactly one
/// TU per program — see bench/alloc_counter.hpp), so binaries that do own
/// a counting allocator register it here and every MetricsTimeline row
/// picks up the delta; unregistered, the column reads 0.
using AllocCountFn = std::uint64_t (*)();

void set_alloc_count_source(AllocCountFn fn) noexcept;
[[nodiscard]] std::uint64_t alloc_count_now() noexcept;

}  // namespace obs

}  // namespace kmm
