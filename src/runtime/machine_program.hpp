#pragma once
// The per-machine program interface of the parallel superstep runtime.
//
// A MachineProgram is the code one simulated machine runs: each superstep
// the runtime calls on_superstep(i, inbox, out) for every machine i with the
// messages delivered to i by the previous superstep. Handlers for different
// machines may run concurrently, so on_superstep must only touch state owned
// by machine `self` (plus read-only shared state) and must emit messages
// exclusively through `out`. Determinism contract: a handler's behavior may
// depend only on (self, inbox contents, program state) — never on thread
// identity, timing, or global mutable state — so that results and the
// cluster ledger are independent of the runtime's thread count.

#include <span>

#include "cluster/message.hpp"
#include "runtime/outbox.hpp"
#include "util/codec.hpp"

namespace kmm {

class MachineProgram {
 public:
  virtual ~MachineProgram() = default;

  /// One superstep of machine `self`: read the inbox, update machine-local
  /// state, enqueue next-superstep messages on `out`.
  virtual void on_superstep(MachineId self, std::span<const Message> inbox,
                            Outbox& out) = 0;

  /// Global termination predicate, evaluated between supersteps on the
  /// driving thread (never concurrently with handlers). Programs driven
  /// manually by an external loop can leave the default.
  [[nodiscard]] virtual bool done() const { return false; }

  // ----------------------------------------------------------------------
  // Fault-plane hooks (porting recipe rule 8 in runtime.hpp). A program
  // that overrides checkpointable() to true must implement snapshot() and
  // restore() such that restore(m, words written by snapshot(m)) rebuilds
  // machine m's state exactly — the fault plane checkpoints every C
  // supersteps and, on an injected crash, restores the victim and replays
  // its logged inboxes.

  /// True when snapshot()/restore() fully capture per-machine state.
  [[nodiscard]] virtual bool checkpointable() const { return false; }
  /// Serialize machine m's state; paired with restore(). Only called when
  /// checkpointable() is true.
  virtual void snapshot(MachineId /*m*/, WordWriter& /*out*/) {}
  /// Rebuild machine m's state from a snapshot; must consume every word.
  virtual void restore(MachineId /*m*/, WordReader& /*in*/) {}

  /// Serialized-state version (porting recipe rule 10 in runtime.hpp): a
  /// resumable program bumps this whenever the word layout snapshot()
  /// writes changes meaning. The durable plane stamps it into every
  /// on-disk frame, and RecoveryManager refuses to restore a frame whose
  /// version differs from the resuming program's — a stale generation is
  /// a structured error, never a misdecoded resume.
  [[nodiscard]] virtual std::uint64_t state_version() const { return 1; }
};

}  // namespace kmm
