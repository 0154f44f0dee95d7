#pragma once
// The k-machine model (Section 1.1) as a deterministic synchronous-round
// simulator.
//
// k >= 2 machines are pairwise connected; each *directed* link carries
// `bandwidth_bits` per round (the paper's O(polylog n) per-link budget; a
// bidirectional link is two independent directions, a constant-factor
// convention). Local computation is free.
//
// Algorithms run as a sequence of *supersteps*: every machine reads its
// inbox, computes, and enqueues messages; `superstep()` then delivers
// everything and charges
//
//     rounds = max over directed links  ceil(bits_on_link / bandwidth_bits)
//
// which is exactly how the paper costs a message schedule (Lemmas 1, 3-5:
// "all messages are delivered within O~(n/k^2) rounds" = the most-loaded
// link needs that many rounds). Self-addressed messages are local and free.
//
// The engine keeps a full ledger (rounds, messages, bits, per-superstep
// per-link maxima, per-machine traffic) — the measurements every bench_*
// binary and the perfbench workloads (perfbench/README.md) are built on.
//
// Execution paths: algorithms either send() directly (sequential; staged
// sends are delivered and accounted by deliver_pending() in one ordered
// pass) or run on the src/runtime/ parallel engine, whose per-source shards
// are delivered through the direct per-destination plane
// (deliver_shards_begin / deliver_shard_to / deliver_shards_finish): k
// concurrent tasks move each destination's buckets straight into its inbox
// and the ledger partials are reduced in ascending link order afterwards.
// The two paths share the same accounting rules over the same per-link
// quantities, so the ledger is by construction bit-identical however the
// local computation was scheduled — tests/test_golden_stats.cpp pins it.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <utility>
#include <vector>

#include "cluster/message.hpp"
#include "cluster/payload_arena.hpp"
#include "util/codec.hpp"
#include "util/expected.hpp"
#include "util/stats.hpp"

namespace kmm {

struct ClusterConfig {
  MachineId k = 2;
  std::uint64_t bandwidth_bits = 256;  // per directed link per round

  /// The default budget used throughout tests and benches:
  /// B = ceil(log2 n)^2 bits per link per round — the canonical concrete
  /// choice of the model's "O(polylog n) bits per link per round".
  static ClusterConfig for_graph(std::size_t n, MachineId k);
};

/// One machine's private send buffer in sharded (parallel runtime) mode:
/// per-destination message buckets plus the arena backing spilled payloads.
/// Bucketing by destination at send time is what lets the delivery plane
/// run as k independent per-destination tasks that move messages without
/// scanning: destination d's task walks buckets[d] of every shard in
/// ascending source order, which reproduces the sequential global send
/// order as seen by inbox d exactly. clear() retains the capacity of every
/// bucket and the arena, so a warm shard absorbs a whole superstep without
/// allocating.
struct OutboxShard {
  std::vector<std::vector<Message>> buckets;  // [dst] -> messages in send order
  PayloadArena arena;

  void resize(MachineId k) { buckets.resize(k); }

  void clear() noexcept {
    for (auto& bucket : buckets) bucket.clear();
    arena.reset();
  }
};

struct ClusterStats {
  std::uint64_t rounds = 0;           // total rounds charged
  std::uint64_t supersteps = 0;       // number of superstep() calls that sent data
  std::uint64_t messages = 0;         // cross-machine messages delivered
  std::uint64_t local_messages = 0;   // self-addressed (free) messages
  std::uint64_t total_bits = 0;       // cross-machine wire bits
  std::uint64_t max_link_bits = 0;    // largest per-link load seen in one superstep
  std::uint64_t cut_bits = 0;         // bits crossing the registered machine cut
  std::uint64_t last_superstep_link_bits = 0;  // most-loaded link of the latest superstep
  Accumulator superstep_link_max;     // distribution of per-superstep max link loads
  std::vector<std::uint64_t> sent_bits_by_machine;
  std::vector<std::uint64_t> received_bits_by_machine;
};

class Cluster {
 public:
  explicit Cluster(ClusterConfig config);

  /// Validating factory for configs of external origin (CLI flags, service
  /// requests): k < 2 or a zero bandwidth come back as a BuildError instead
  /// of aborting.
  [[nodiscard]] static Expected<Cluster, BuildError> make(ClusterConfig config);

  [[nodiscard]] MachineId k() const noexcept { return config_.k; }
  [[nodiscard]] std::uint64_t bandwidth_bits() const noexcept { return config_.bandwidth_bits; }

  /// Enqueue a message for the next superstep. The payload is copied —
  /// inline into the Message when it fits, into the pending arena otherwise
  /// — so the caller's buffer may be reused immediately.
  void send(MachineId src, MachineId dst, std::uint32_t tag,
            std::span<const std::uint64_t> payload, std::uint64_t bits = 0);
  void send(MachineId src, MachineId dst, std::uint32_t tag,
            std::initializer_list<std::uint64_t> payload, std::uint64_t bits = 0) {
    send(src, dst, tag, std::span<const std::uint64_t>(payload.begin(), payload.size()),
         bits);
  }

  /// Move a pre-ordered batch of messages into the pending outbox —
  /// equivalent to send() per message in batch order. Used by the parallel
  /// Runtime to merge per-source outbox shards after the superstep barrier;
  /// the batch is left empty (capacity retained for reuse). Spilled payloads
  /// are re-homed from the shard's arena into the cluster's pending arena,
  /// so the shard may be recycled as soon as the call returns.
  void enqueue_batch(std::vector<Message>&& batch);

  /// Deliver all enqueued messages; charge rounds; returns rounds charged.
  /// After the call, inbox(m) holds machine m's received messages (in
  /// deterministic send order) until the next superstep.
  std::uint64_t superstep();

  /// True when send() / enqueue_batch() messages are staged for the next
  /// superstep(). The direct delivery plane below requires an empty staging
  /// outbox; the Runtime falls back to the merge path when this holds.
  [[nodiscard]] bool has_staged() const noexcept { return !outbox_.empty(); }

  /// Direct shard->inbox delivery plane (the parallel path). Protocol:
  ///   deliver_shards_begin(shards)   caller thread, after the handler
  ///                                  barrier; shards[s] holds machine s's
  ///                                  sends bucketed by destination;
  ///   deliver_shard_to(d)            once per destination — safe to run
  ///                                  the k calls concurrently (each task
  ///                                  touches only destination-d state and
  ///                                  the k*k link table's column d);
  ///   deliver_shards_finish()        caller thread, after all per-
  ///                                  destination tasks completed; tree-
  ///                                  folds the per-destination ledger
  ///                                  partials pairwise and returns the
  ///                                  rounds charged.
  /// Observationally identical — inbox contents, inbox order, and the full
  /// ClusterStats ledger bit-for-bit — to enqueue_batch() per shard in
  /// ascending source order followed by superstep(): every reduced quantity
  /// is an unsigned sum or maximum of exactly the per-link values the
  /// sequential pass accumulates message-by-message, so the hierarchical
  /// fold order cannot change any ledger bit.
  void deliver_shards_begin(std::span<OutboxShard> shards);
  void deliver_shard_to(MachineId dst);
  std::uint64_t deliver_shards_finish();

  [[nodiscard]] std::span<const Message> inbox(MachineId m) const;

  /// Fault-plane recovery surface: drop machine m's current inbox (what a
  /// crash loses) and re-inject a retransmitted message into it. Injection
  /// is ledger-free — the bits were already charged when the message was
  /// delivered; the plane accounts the retransmission analytically via
  /// charge_rounds(). The payload is re-homed into the inbox's arena, so
  /// the injected message lives exactly as long as the inbox it sits in.
  void clear_inbox(MachineId m);
  void inject_inbox(MachineId m, const Message& msg);

  /// Charge rounds for a protocol whose cost is accounted analytically
  /// (e.g. the Section 2.2 shared-randomness distribution).
  void charge_rounds(std::uint64_t rounds);

  /// Register a machine bipartition; from then on stats().cut_bits counts
  /// every wire bit crossing it. Used by the Section 4 two-party (Alice /
  /// Bob) simulation to measure the communication-complexity cost of a
  /// k-machine protocol. `side` must have one entry (0 or 1) per machine.
  void track_cut(std::vector<std::uint8_t> side);

  [[nodiscard]] const ClusterStats& stats() const noexcept { return stats_; }

  /// Durable-restart seam: overwrite the ledger with a snapshot recovered
  /// from a checkpoint frame. Only the RecoveryManager path calls this — a
  /// resumed process continues accumulating on top of the restored values,
  /// which is what makes the final ledger bit-identical to an uninterrupted
  /// run. The per-machine vectors must match this cluster's width.
  void restore_stats(const ClusterStats& stats);

  /// Number of directed links, k(k-1).
  [[nodiscard]] std::uint64_t directed_links() const noexcept {
    return static_cast<std::uint64_t>(config_.k) * (config_.k - 1);
  }

 private:
  /// The sequential delivery/accounting pass: routes every staged message
  /// to its inbox and updates the full ledger in one ordered scan. The
  /// send() path and the runtime's enqueue_batch() fallback terminate here;
  /// the direct plane above implements the same rules destination-parallel.
  std::uint64_t deliver_pending();

  ClusterConfig config_;
  std::vector<Message> outbox_;                 // pending, in send order
  std::vector<std::vector<Message>> inboxes_;   // per machine, current superstep
  std::vector<std::uint8_t> cut_side_;          // empty = no cut tracked
  ClusterStats stats_;

  // Double-buffered payload storage: sends spill into pending_arena_;
  // superstep() recycles live_arena_ (last superstep's inbox payloads) and
  // swaps, so delivered payloads stay valid exactly as long as the inbox
  // they sit in. Chunk memory is stable across the swap, so no Message
  // pointer is disturbed.
  PayloadArena pending_arena_;
  PayloadArena live_arena_;

  // Flat k*k per-directed-link load table plus first-touch list, used only
  // by the sequential deliver_pending() path and allocated LAZILY on its
  // first use — runtime-driven workloads that always take the direct plane
  // never pay the dense table. Entries are zeroed again after every
  // delivery, so the steady state allocates nothing and max-load scanning
  // is deterministic (first-touch order).
  std::vector<std::uint64_t> link_bits_;
  std::vector<std::uint64_t> touched_links_;
  std::vector<std::uint32_t> inbox_counts_;  // per-destination count scratch

  // Direct delivery plane state. Each inbox owns an arena for the spilled
  // payloads delivered to it: destination d's task re-homes shard-arena
  // payloads into inbox_arenas_[d], so payload lifetime equals inbox
  // lifetime and the shards are reusable the moment delivery ends.
  //
  // Ledger partials are SPARSE per-destination rows rather than a dense
  // dst-major k*k table: destination d's task appends one (src, bits) pair
  // per source that actually sent to it (ascending src, since that is the
  // bucket walk order) plus its scalar message counts. Tasks write disjoint
  // rows, so the parallel phase stays contention-free, and the footprint is
  // O(touched links), not O(k^2) — the flat table is no longer the ceiling
  // at large k. finish() reduces the k rows by a pairwise TREE-FOLD
  // (fold_nodes_ holds the current level; merges combine scalar aggregates
  // and merge the ascending per-source sent lists): every folded quantity
  // is a commutative unsigned sum or maximum, so the tree order reproduces
  // the sequential ledger bit-for-bit. All buffers retain capacity — a warm
  // cluster finishes a superstep without allocating.
  struct DeliveryPartial {
    std::vector<std::pair<MachineId, std::uint64_t>> link_bits;  // ascending src
    std::uint64_t cross = 0;  // cross-machine messages into this destination
    std::uint64_t local = 0;  // self-addressed messages
  };
  struct LedgerFold {
    std::uint64_t total = 0;     // wire bits in this subtree
    std::uint64_t max_link = 0;  // most-loaded link in this subtree
    std::uint64_t cut = 0;       // bits crossing the tracked cut
    std::uint64_t cross = 0;
    std::uint64_t local = 0;
    std::vector<std::pair<MachineId, std::uint64_t>> sent;  // per-source bits, ascending
  };
  void fold_merge(LedgerFold& into, LedgerFold& from);

  std::span<OutboxShard> delivery_shards_;       // valid between begin/finish
  std::vector<PayloadArena> inbox_arenas_;       // one per destination
  std::vector<DeliveryPartial> delivery_partials_;  // one sparse row per destination
  std::vector<LedgerFold> fold_nodes_;           // tree-fold working set (k leaves)
  std::vector<std::pair<MachineId, std::uint64_t>> fold_merge_tmp_;
};

}  // namespace kmm
