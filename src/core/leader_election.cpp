#include "core/leader_election.hpp"

#include <utility>

#include "util/assert.hpp"
#include "util/random.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagTicket = 71;
}

LeaderResult elect_leader(Cluster& cluster, const LeaderElectionConfig& config) {
  const StatsScope scope(cluster);
  const MachineId k = cluster.k();
  Runtime rt(cluster, config);

  // Machine i's private ticket; modeled as split(seed, i) so the run is
  // reproducible, exactly like the machines' private tapes elsewhere.
  std::vector<std::uint64_t> ticket(k);
  for (MachineId i = 0; i < k; ++i) ticket[i] = split(config.seed, i);

  rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
    for (MachineId j = 0; j < k; ++j) {
      if (j != i) out.send(j, kTagTicket, {ticket[i]}, 64);
    }
  });

  // Every machine computes the same minimum into its own slot (free
  // superstep — nothing is sent); the driving thread verifies agreement.
  std::vector<std::pair<std::uint64_t, MachineId>> best(k);
  rt.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
    best[i] = {ticket[i], i};
    for (const auto& msg : inbox) {
      if (msg.tag != kTagTicket) continue;
      best[i] = std::min(best[i], {msg.payload()[0], msg.src});
    }
  });

  LeaderResult result;
  result.leader = best[0].second;
  for (MachineId i = 1; i < k; ++i) {
    KMM_CHECK_MSG(best[i].second == result.leader, "machines disagree on the leader");
  }
  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
