#pragma once
// Shared types and small protocols used by the Section 2/3 algorithms.

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/distributed_graph.hpp"
#include "runtime/runtime.hpp"

namespace kmm {

/// Component labels are vertex ids promoted to 64 bits (the paper labels
/// components by node ids from [n]).
using Label = std::uint64_t;

/// Round/traffic snapshot of one algorithm run, derived from the cluster
/// ledger (difference between start and end of run()).
struct RunStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  std::uint64_t supersteps = 0;
};

class StatsScope {
 public:
  explicit StatsScope(const Cluster& cluster) noexcept
      : cluster_(&cluster),
        rounds0_(cluster.stats().rounds),
        msgs0_(cluster.stats().messages),
        bits0_(cluster.stats().total_bits),
        steps0_(cluster.stats().supersteps) {}

  [[nodiscard]] RunStats snapshot() const noexcept {
    const auto& s = cluster_->stats();
    return RunStats{s.rounds - rounds0_, s.messages - msgs0_, s.total_bits - bits0_,
                    s.supersteps - steps0_};
  }

 private:
  const Cluster* cluster_;
  std::uint64_t rounds0_, msgs0_, bits0_, steps0_;
};

// Snapshot decoding (porting recipe rule 10 in runtime.hpp): restore()
// reads words a frame carried from disk, and a checksummed frame can still
// carry any word. Each reader takes one word (or aborts on underrun) and
// aborts with `diagnostic`, which names the field, when it is out of range.

/// A word below `bound`.
[[nodiscard]] std::uint64_t restore_below(WordReader& in, std::uint64_t bound,
                                          const char* diagnostic);
/// A 0/1 flag word.
[[nodiscard]] bool restore_flag(WordReader& in, const char* diagnostic);
/// A count of entries of at least `words_each` words, which must fit in
/// the words left.
[[nodiscard]] std::uint64_t restore_count(WordReader& in, std::size_t words_each,
                                          const char* diagnostic);

/// Distributed sum of per-machine counters at M1 (machine 0), broadcast
/// back: 2 supersteps with at most k-1 counter messages each — the paper's
/// standard O(1)-round control primitive. Runs as two StepMode::kInline
/// control-plane supersteps on `rt`.
[[nodiscard]] std::uint64_t sum_reduce_broadcast(Runtime& rt,
                                                 const std::vector<std::uint64_t>& machine_value,
                                                 std::uint32_t tag);

}  // namespace kmm
