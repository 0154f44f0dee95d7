#pragma once
// The machine-local half of min-label flooding, shared by both flooding
// engines (flooding_connectivity in core/flooding.hpp and FloodProgram in
// core/flood_program.hpp): the local fixpoint, applying received labels,
// and the boundary exchange. The engines own the labels/changed vectors
// and the superstep schedule.
//
// Boundary plan: machine m's cut half-edges — (remote neighbor t, hosted
// vertex v) with home(t) != m — packed as (t << 32 | v) and sorted once,
// ascending by (t, v). The cut is fixed for the whole flood, so the plan
// is structural, not state: it is built from the DistributedGraph on the
// first exchange of each machine (in that machine's handler, so machines
// build in parallel), never snapshotted and never touched by a restore.
// 8 bytes per cut half-edge.
//
// Exchange: one linear scan of the plan. Each run of equal t whose run
// holds a changed v sends {t, min label over the changed v} to home(t)
// (tag kTag, 2 * bits(n) declared bits), so the sends are exactly those of
// gathering (t, label) per changed vertex, sorting and keeping the first
// entry per t — same messages, same ascending-target order, hence the
// same ledger and inbox order.
//
// Every method for machine m touches only m's plan and queue and the
// labels/changed cells of m's hosted vertices, so handlers of different
// machines may call them concurrently on the shared vectors.

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "core/common.hpp"
#include "runtime/outbox.hpp"

namespace kmm {

class FloodExchange {
 public:
  /// Tag of flood label messages; an engine's own messages use other tags.
  static constexpr std::uint32_t kTag = 1;

  FloodExchange(const DistributedGraph& dg, MachineId k);

  /// Local fixpoint of machine m from all its hosted vertices.
  void start(MachineId m, std::vector<Label>& labels, std::vector<char>& changed);

  /// Applies the received labels (messages tagged kTag; others skipped):
  /// a label below its vertex's current one lowers it and marks it
  /// changed. Then runs the local fixpoint from the lowered vertices.
  void receive(MachineId m, std::span<const Message> inbox, std::vector<Label>& labels,
               std::vector<char>& changed);

  /// Sends machine m's boundary candidates (see above), then clears the
  /// changed bits of m's hosted vertices. Returns whether any message was
  /// sent.
  bool send(MachineId m, const std::vector<Label>& labels, std::vector<char>& changed,
            Outbox& out);

 private:
  void build(MachineId m);
  void propagate(MachineId m, std::vector<Label>& labels, std::vector<char>& changed);

  const DistributedGraph* dg_;
  std::uint64_t message_bits_;
  std::vector<std::vector<std::uint64_t>> plan_;  // [m] (t << 32 | v), ascending
  std::vector<char> built_;                       // [m] plan_[m] is built
  // [m] FIFO of lowered vertices, empty between supersteps; its capacity
  // is kept for the next one.
  std::vector<std::vector<Vertex>> queue_;
};

}  // namespace kmm
