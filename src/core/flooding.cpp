#include "core/flooding.hpp"

#include "core/flood_exchange.hpp"
#include "fault/fault_plane.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagCtrl = 2;
static_assert(kTagCtrl != FloodExchange::kTag);
}  // namespace

FloodingResult flooding_connectivity(Cluster& cluster, const DistributedGraph& dg,
                                     const FloodingConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();
  const MachineId k = cluster.k();
  // The smallest label crosses one boundary hop per iteration, so n + 1
  // iterations suffice; crashes and lossy links leave every bucket holding
  // the fault-free messages, so that holds under them too. Injected payload
  // corruption can hand a vertex a fresh smaller in-range label at any
  // iteration; every iteration but the last still lowers some label in
  // [0, n), which bounds that case by the sum of the initial labels.
  // Exceeding the bound is a bug, not slow convergence.
  const bool corrupting = config.fault != nullptr && config.fault->schedule().can_corrupt();
  const std::uint64_t max_iterations = corrupting ? n * (n - 1) / 2 + 1 : n + 1;
  Runtime rt(cluster, RuntimeConfig{config.threads, config.obs, config.fault, config.cancel,
                                    config.pool});

  FloodingResult result;
  result.labels.resize(n);
  for (Vertex v = 0; v < n; ++v) result.labels[v] = v;

  // Shared state, machine-indexed by construction: labels[v] and changed[v]
  // are only touched by the handler of dg.home(v); bit[i] and machine i's
  // part of the exchange only by handler i. That partition is what makes
  // the handlers race-free without locks (and is asserted on the receive
  // path).
  std::vector<char> changed(n, 1);
  FloodExchange exchange(dg, k);
  std::vector<char> bit(k, 0);  // bit[i] = machine i sent this iteration

  // Fault-plane state hooks (porting recipe rule 8b): machine m's complete
  // cross-step state is its sent-bit plus the label/changed cells of its
  // hosted vertices. The exchange's boundary plan is structural and its
  // queues are empty between steps, so neither is serialized.
  const StateHookScope fault_scope(
      config.fault,
      [&](MachineId m, WordWriter& w) {
        w.u64(static_cast<std::uint64_t>(bit[m]));
        for (const Vertex v : dg.vertices_of(m)) {
          w.u64(result.labels[v]);
          w.u64(static_cast<std::uint64_t>(changed[v]));
        }
      },
      [&](MachineId m, WordReader& r) {
        bit[m] = static_cast<char>(r.u64());
        for (const Vertex v : dg.vertices_of(m)) {
          result.labels[v] = r.u64();
          changed[v] = static_cast<char>(r.u64());
        }
      });

  // Initial machine-local fixpoint before any exchange. No handler sends,
  // so this superstep is free — pure parallel local computation.
  rt.step([&](MachineId i, std::span<const Message>, Outbox&) {
    exchange.start(i, result.labels, changed);
  });

  for (std::uint64_t step = 0;; ++step) {
    KMM_CHECK_MSG(step <= max_iterations, "flooding failed to converge");
    // Boundary exchange: per machine, send the best candidate label per
    // remote target vertex among changed local vertices.
    rt.step([&](MachineId i, std::span<const Message>, Outbox& out) {
      bit[i] = exchange.send(i, result.labels, changed, out) ? 1 : 0;
    });
    // Apply the labels that just arrived and re-run the local fixpoint.
    // Nothing is sent, so this superstep is free — it must run before the
    // or-reduce below, whose own supersteps clear every inbox.
    rt.step([&](MachineId i, std::span<const Message> inbox, Outbox&) {
      exchange.receive(i, inbox, result.labels, changed);
    });
    result.supersteps = step + 1;
    if (!or_reduce_broadcast(rt, bit, kTagCtrl)) {
      result.converged = true;
      break;
    }
  }

  // Component count for convenience (instrumentation over final labels).
  std::vector<char> seen(n, 0);
  for (const Label label : result.labels) {
    if (!seen[label]) {
      seen[label] = 1;
      ++result.num_components;
    }
  }
  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
