#pragma once
// Min-label flooding connectivity as a *checkpointable MachineProgram* —
// the durably resumable counterpart of flooding_connectivity (rule 8a +
// rule 10 in runtime.hpp's porting recipe, vs. the lambda-driven rule-8b
// original).
//
// The lambda engine's driver loop (initial fixpoint, then boundary-
// exchange / apply / or-reduce steps) keeps its control position in
// process-local code, so it cannot be resumed after a process death. This
// program folds the whole iteration into ONE uniform superstep handler —
// apply inbound labels, local fixpoint, send boundary candidates, and
// broadcast a 1-bit activity flag to every other machine for convergence
// detection — so the complete computation state is (per-machine words +
// inbox), exactly what a durable frame captures. A process killed between
// any two supersteps restarts from the last generation and continues
// bit-identically.
//
// Convergence: machine i's flag sent at step t says "i emitted flood
// messages at t". At t+1 every machine sees the OR of all flags from t;
// when it is 0 no flood message was generated at t, every changed bit was
// already cleared, and the system is at a global fixpoint — all machines
// mark done in the same superstep and send nothing (a free superstep).
// The extra k(k-1) one-bit control messages per superstep are this
// engine's ledger signature; it is costed like the or-reduce it replaces,
// just flattened into the data supersteps.

#include <cstdint>
#include <vector>

#include "cluster/distributed_graph.hpp"
#include "core/common.hpp"
#include "core/flood_exchange.hpp"
#include "obs/obs_sink.hpp"
#include "runtime/machine_program.hpp"

namespace kmm {

class FaultPlane;

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

  [[nodiscard]] const std::vector<Label>& labels() const noexcept { return labels_; }
  /// Supersteps executed, counted across process lifetimes (restored from
  /// frames), so a resumed run reports the same total as an uninterrupted
  /// one.
  [[nodiscard]] std::uint64_t supersteps() const noexcept { return steps_.empty() ? 0 : steps_[0]; }

 private:
  const DistributedGraph* dg_;
  MachineId k_;
  FloodExchange exchange_;

  // Machine-partitioned shared state (rule 2): labels_[v]/changed_[v] are
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

/// Driver config/result mirroring FloodingConfig/FloodingResult; `fault`
/// carries the durable plane (DurableStore tee and/or an armed resume
/// frame) when durability is wanted.
struct ResumableFloodConfig {
  std::uint64_t max_supersteps = 0;  // 0 = n + 8 safety cap
  unsigned threads = 1;
  const ObsSink* obs = nullptr;
  FaultPlane* fault = nullptr;
  CancelPoint* cancel = nullptr;
  ThreadPool* pool = nullptr;
};

struct ResumableFloodResult {
  std::vector<Label> labels;
  std::uint64_t num_components = 0;
  std::uint64_t supersteps = 0;  // across process lifetimes when resumed
  bool converged = false;
  RunStats stats;
};

ResumableFloodResult resumable_flood_connectivity(Cluster& cluster,
                                                  const DistributedGraph& dg,
                                                  const ResumableFloodConfig& config = {});

}  // namespace kmm
