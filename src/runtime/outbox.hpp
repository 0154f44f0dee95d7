#pragma once
// Per-machine send port handed to superstep handlers.
//
// A handler running as machine i may only emit messages with src == i and
// dst < k; the Outbox enforces both and writes into machine i's private
// OutboxShard owned by the Runtime (per-destination message buckets +
// payload arena, all capacity-retaining; the type lives in
// cluster/cluster.hpp because the delivery plane consumes it directly).
// After the handlers finish, the Runtime delivers the shards through the
// Cluster's per-destination delivery plane, whose per-inbox order is
// (source, send order) however handler execution interleaved across
// threads. Payloads are passed as spans and copied at send time (inline in
// the Message when <= kInlinePayloadWords, else into the shard's arena), so
// callers may reuse their scratch buffers immediately. Each Message is
// constructed in place in its bucket: no temporary is built and copied.

#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/message.hpp"
#include "cluster/payload_arena.hpp"
#include "util/assert.hpp"

namespace kmm {

class Outbox {
 public:
  /// Messages buffer in `shard` until the Runtime delivers it.
  Outbox(OutboxShard& shard, MachineId self, MachineId k) noexcept
      : shard_(&shard), self_(self), k_(k) {}

  [[nodiscard]] MachineId self() const noexcept { return self_; }
  [[nodiscard]] MachineId machines() const noexcept { return k_; }

  /// Enqueue a message from this machine for the next delivery; the
  /// payload is copied, so the caller's buffer may be reused right away.
  void send(MachineId dst, std::uint32_t tag, std::span<const std::uint64_t> payload,
            std::uint64_t bits = 0) {
    KMM_CHECK(dst < k_);
    shard_->buckets[dst].emplace_back(self_, dst, tag, payload, bits, shard_->arena);
  }

  void send(MachineId dst, std::uint32_t tag, std::initializer_list<std::uint64_t> payload,
            std::uint64_t bits = 0) {
    send(dst, tag, std::span<const std::uint64_t>(payload.begin(), payload.size()), bits);
  }

 private:
  OutboxShard* shard_;
  MachineId self_;
  MachineId k_;
};

}  // namespace kmm
