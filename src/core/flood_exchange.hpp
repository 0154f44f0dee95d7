#pragma once
// The machine-local half of min-label flooding, used by FloodProgram
// (core/flood_program.hpp): the local fixpoint, applying received labels,
// and the boundary exchange. The program owns the labels/changed state and
// the superstep schedule.
//
// Slots: machine m's state is indexed by slot, a hosted vertex's position
// in dg.vertices_of(m) (ascending vertex id, so slot order is id order).
// The methods take m's labels and changed flags as slot-indexed spans that
// the program keeps in m's own allocation, so a handler never touches a
// cache line another machine writes.
//
// Structure, built on the first call for machine m (in that machine's
// handler, so machines build in parallel) and never snapshotted or touched
// by a restore — the cut is fixed for the whole flood:
//   * slot table: v -> slot for every vertex, each machine filling the
//     cells of its own vertices (4 bytes per vertex);
//   * boundary plan: m's cut half-edges — (remote neighbor t, hosted slot
//     s) with home(t) != m — packed as (t << 32 | s) and sorted ascending
//     by (t, s) (8 bytes per cut half-edge);
//   * local adjacency: for each slot, the slots of its neighbors hosted by
//     m, ascending (4 bytes per local half-edge plus 4 per hosted vertex),
//     so the fixpoint never looks at a remote neighbor.
//
// Exchange: one linear scan of the plan. Each run of equal t whose run
// holds a changed slot sends {t, min label over the changed slots} to
// home(t) (tag kTag, 2 * bits(n) declared bits), so the sends are exactly
// those of gathering (t, label) per changed vertex, sorting and keeping the
// first entry per t — same messages, same ascending-target order, hence
// the same ledger and inbox order.
//
// Every method for machine m touches only m's structure, queue and slot
// cells and the spans it is given, so handlers of different machines may
// call them concurrently.

#include <cstdint>
#include <span>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "core/common.hpp"
#include "runtime/outbox.hpp"

namespace kmm {

class FloodExchange {
 public:
  /// Tag of flood label messages; the program's own messages use other tags.
  static constexpr std::uint32_t kTag = 1;

  FloodExchange(const DistributedGraph& dg, MachineId k);

  /// Local fixpoint of machine m from all its hosted vertices. `labels`
  /// and `changed` are m's slot-indexed state, here and below.
  void start(MachineId m, std::span<Label> labels, std::span<char> changed);

  /// Applies the received labels (messages tagged kTag; others skipped):
  /// a label below its vertex's current one lowers it and marks it
  /// changed. Then runs the local fixpoint from the lowered vertices.
  void receive(MachineId m, std::span<const Message> inbox, std::span<Label> labels,
               std::span<char> changed);

  /// Sends machine m's boundary candidates (see above), then clears the
  /// changed bits of m's hosted vertices. Returns whether any message was
  /// sent.
  bool send(MachineId m, std::span<const Label> labels, std::span<char> changed, Outbox& out);

 private:
  // Machine m's structure and scratch, touched only by m's handler; one
  // cache line of headers per machine.
  struct alignas(64) Local {
    bool built = false;
    std::vector<std::uint64_t> plan;     // (t << 32 | slot), ascending
    std::vector<std::uint32_t> offsets;  // [slot] into adjacency; hosted + 1 entries
    std::vector<std::uint32_t> adjacency;
    // FIFO of lowered slots, empty between supersteps; its capacity is kept
    // for the next one.
    std::vector<std::uint32_t> queue;
  };

  /// m's structure, built on the first call (from m's handler).
  Local& prepare(MachineId m);
  void propagate(Local& local, std::span<Label> labels, std::span<char> changed);

  const DistributedGraph* dg_;
  std::uint64_t message_bits_;
  std::vector<std::uint32_t> slot_;  // [v] position of v in vertices_of(home(v))
  std::vector<Local> locals_;        // [m]
};

}  // namespace kmm
