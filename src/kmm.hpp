#pragma once
// Umbrella header for the kmm library: distributed graph algorithms in the
// k-machine model, reproducing Pandurangan–Robinson–Scquizzato (SPAA 2016).
//
// Layers (each usable on its own):
//   util       — RNG, F_{2^61-1}, hashing, stats, codec
//   graph      — CSR graphs, generators (materialized and chunked-streaming
//                flavors), sequential reference algorithms
//   cluster    — the k-machine synchronous-round simulator, partitions, and
//                the shard-direct streaming ingest plane (budget-capped
//                per-machine shards built without a global graph)
//   runtime    — thread-parallel superstep execution: per-machine
//                MachineProgram handlers run on a worker pool with
//                per-source destination-bucketed outbox shards, a barrier,
//                and the cluster's direct per-destination delivery plane
//                (k concurrent shard→inbox tasks + a deterministic ledger
//                reduction). Invariant: the ClusterStats ledger is
//                independent of the thread count.
//   sketch     — linear l0-sampling graph sketches
//   core       — connectivity / MST / min-cut / verification + baselines
//                (the §1.2 flooding baseline is one checkpointable
//                FloodProgram, so it also resumes from durable frames;
//                every engine executes on the runtime; each core config
//                derives from RuntimeConfig, so its `threads` field
//                parallelizes machine-local work)
//   obs        — opt-in observability: per-superstep MetricsTimeline rows
//                and Chrome-trace spans, attached through an ObsSink on
//                RuntimeConfig::obs, which every core config inherits (off
//                by default; never perturbs the ledger)
//   fault      — opt-in fault injection & recovery: a seeded, bit-
//                reproducible FaultSchedule (machine crashes, lossy links,
//                payload corruption) plus the FaultPlane recovery machinery
//                (superstep checkpoint/replay of checkpointable
//                programs, retransmit-from-outbox), attached through the `fault`
//                field of the configs whose engines recover (off by
//                default; detached is bit-identical)
//   durable    — the durable checkpoint & restart plane: checksummed
//                on-disk frames (per-machine state + superstep ordinal +
//                the full ClusterStats ledger + the inbox replay window,
//                CRC-64 per frame, written via fsync + atomic rename), a
//                DurableStore the FaultPlane tees checkpoints into, and a
//                RecoveryManager that scans generations, rejects corrupt /
//                torn / stale frames with structured errors, and resumes a
//                checkpointable program mid-computation — answers AND
//                ledgers bit-identical to an uninterrupted run
//   serve      — the resilient query-serving layer: one long-lived
//                DistributedGraph serving concurrent queries with per-query
//                budgets (wall deadline, superstep cap, ledger-bit cap),
//                cooperative cancellation at superstep boundaries, seeded
//                retry/backoff over injected crashes, and an admission
//                controller that sheds load (kOverloaded) instead of
//                thrashing — every outcome structured, never an abort
//   lowerbound — Section 4 two-party simulation artifacts

#include "cluster/cluster.hpp"
#include "cluster/conversion.hpp"
#include "cluster/distributed_graph.hpp"
#include "cluster/proxy.hpp"
#include "cluster/shared_randomness.hpp"
#include "cluster/stream_ingest.hpp"
#include "core/boruvka.hpp"
#include "core/connectivity.hpp"
#include "core/drr.hpp"
#include "core/flood_exchange.hpp"
#include "core/flood_program.hpp"
#include "core/flooding.hpp"
#include "core/label_registry.hpp"
#include "core/leader_election.hpp"
#include "core/mincut.hpp"
#include "core/mst.hpp"
#include "core/referee.hpp"
#include "core/rep_mst.hpp"
#include "core/two_edge.hpp"
#include "core/verification.hpp"
#include "durable/durable_format.hpp"
#include "durable/durable_store.hpp"
#include "durable/recovery_manager.hpp"
#include "fault/checkpoint_store.hpp"
#include "fault/fault_plane.hpp"
#include "fault/fault_schedule.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/partition.hpp"
#include "lowerbound/disjointness.hpp"
#include "lowerbound/scs_instance.hpp"
#include "lowerbound/two_party_sim.hpp"
#include "obs/metrics_timeline.hpp"
#include "obs/obs_sink.hpp"
#include "obs/trace_recorder.hpp"
#include "runtime/machine_program.hpp"
#include "runtime/outbox.hpp"
#include "runtime/phase_timers.hpp"
#include "runtime/runtime.hpp"
#include "serve/cancel.hpp"
#include "serve/query_journal.hpp"
#include "serve/retry.hpp"
#include "serve/service.hpp"
#include "sketch/graph_sketch.hpp"
#include "sketch/l0_sampler.hpp"
#include "sketch/one_sparse.hpp"
#include "sketch/power_table.hpp"
#include "sketch/sketch_pool.hpp"
#include "util/atomic_file.hpp"
#include "util/crc64.hpp"
#include "util/expected.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"
