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

  /// Move the labels out once the run is over (the program is spent).
  [[nodiscard]] std::vector<Label> take_labels() noexcept { return std::move(labels_); }
  /// Supersteps executed, counted across process lifetimes (restored from
  /// frames), so a resumed run reports the same total as an uninterrupted
  /// one.
  [[nodiscard]] std::uint64_t supersteps() const noexcept { return steps_.empty() ? 0 : steps_[0]; }

 private:
  const DistributedGraph* dg_;
  MachineId k_;
  FloodExchange exchange_;

  // Machine-partitioned shared state (rule 3): labels_[v]/changed_[v] are
  // touched only by the handler of dg.home(v); the per-machine vectors only
  // by handler m at index m. Serialized state is everything a handler reads
  // across steps. exchange_'s boundary plan is structural and its queues
  // are empty between steps, so neither is serialized.
  std::vector<Label> labels_;
  std::vector<char> changed_;
  std::vector<char> sent_;              // [m] flag broadcast last superstep
  std::vector<char> done_;              // [m] fixpoint observed
  std::vector<std::uint64_t> steps_;    // [m] supersteps executed (lockstep)
};

}  // namespace kmm
