#pragma once
// Min-label flooding connectivity as a *checkpointable MachineProgram*
// (rules 8 and 10 in runtime.hpp's porting recipe) — the one flooding
// engine, driven by flooding_connectivity (core/flooding.hpp).
//
// The whole iteration is ONE uniform superstep handler — apply inbound
// labels, local fixpoint, send boundary candidates, and broadcast a 1-bit
// activity flag to every other machine for convergence detection — so no
// control position lives in driver code and the complete computation state
// is (per-machine words + inbox), exactly what a checkpoint or a durable
// frame captures. A machine crashed in-process is rolled back and replayed;
// a process killed between any two supersteps restarts from the last
// generation. Both continue bit-identically.
//
// Convergence: machine i's flag sent at step t says "i emitted flood
// messages at t". At t+1 every machine sees the OR of all flags from t;
// when it is 0 no flood message was generated at t, every changed bit was
// already cleared, and the system is at a global fixpoint — all machines
// mark done in the same superstep and send nothing (a free superstep).
// The extra k(k-1) one-bit control messages per superstep are this
// engine's ledger signature: an OR-reduce flattened into the data
// supersteps.
//
// State layout (rule 3): each machine keeps its labels and changed flags in
// its own allocation, indexed by slot — a hosted vertex's position in
// dg.vertices_of(m) — so a handler never writes a cache line another
// machine touches. Slot order is hosted order, so a snapshot writes
// (label, changed) per hosted vertex in ascending id, the layout of
// kStateVersion 1. take_labels() gathers the result by vertex id once.

#include <cstdint>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "core/common.hpp"
#include "core/flood_exchange.hpp"
#include "runtime/machine_program.hpp"

namespace kmm {

class FloodProgram final : public MachineProgram {
 public:
  /// Bumped on any change to the snapshot word layout (rule 10).
  static constexpr std::uint64_t kStateVersion = 1;

  FloodProgram(const DistributedGraph& dg, MachineId k);

  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override;
  [[nodiscard]] bool done() const override;
  [[nodiscard]] bool checkpointable() const override { return true; }
  void snapshot(MachineId m, WordWriter& out) override;
  void restore(MachineId m, WordReader& in) override;
  [[nodiscard]] std::uint64_t state_version() const override { return kStateVersion; }

  /// The final labels, indexed by vertex id, gathered once from the
  /// machines' slot-indexed state (the program is spent afterwards).
  [[nodiscard]] std::vector<Label> take_labels();
  /// Supersteps executed, counted across process lifetimes (restored from
  /// frames), so a resumed run reports the same total as an uninterrupted
  /// one.
  [[nodiscard]] std::uint64_t supersteps() const noexcept {
    return machines_.empty() ? 0 : machines_[0].steps;
  }

 private:
  const DistributedGraph* dg_;
  MachineId k_;
  FloodExchange exchange_;

  // machines_[m] is touched during a step only by m's handler (see "State
  // layout" above). Serialized state is everything a handler reads across
  // steps. exchange_'s structure is derived from the graph and its queues
  // are empty between steps, so neither is serialized.
  struct alignas(64) Machine {
    std::vector<Label> labels;   // [slot]
    std::vector<char> changed;   // [slot]
    std::uint64_t steps = 0;     // supersteps executed (lockstep)
    char sent = 0;               // flag broadcast last superstep
    char done = 0;               // fixpoint observed
  };
  std::vector<Machine> machines_;  // [m]
};

}  // namespace kmm
