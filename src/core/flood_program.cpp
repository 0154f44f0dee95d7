#include "core/flood_program.hpp"

#include <algorithm>

#include "core/flood_exchange.hpp"
#include "fault/fault_plane.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagCtrl = 2;
static_assert(kTagCtrl != FloodExchange::kTag);

/// A restored flag word must be 0 or 1; a checksummed frame can still
/// carry anything, so say which field was not.
char restore_flag(WordReader& in, const char* diagnostic) {
  const std::uint64_t word = in.u64();
  KMM_CHECK_MSG(word <= 1, diagnostic);
  return static_cast<char>(word);
}

}  // namespace

FloodProgram::FloodProgram(const DistributedGraph& dg, MachineId k)
    : dg_(&dg),
      k_(k),
      exchange_(dg, k) {
  const std::size_t n = dg.num_vertices();
  labels_.resize(n);
  for (Vertex v = 0; v < n; ++v) labels_[v] = v;
  changed_.assign(n, 1);
  sent_.assign(k, 0);
  done_.assign(k, 0);
  steps_.assign(k, 0);
}

bool FloodProgram::done() const {
  return std::all_of(done_.begin(), done_.end(), [](char d) { return d != 0; });
}

void FloodProgram::on_superstep(MachineId self, std::span<const Message> inbox,
                                Outbox& out) {
  bool active_prev = sent_[self] != 0;
  if (steps_[self] == 0) {
    // First superstep: seed the local fixpoint from every hosted vertex
    // (all changed bits start set). Nothing arrived yet and termination is
    // impossible before at least one exchange.
    exchange_.start(self, labels_, changed_);
    active_prev = true;
  } else {
    for (const Message& msg : inbox) {
      if (msg.tag == kTagCtrl) active_prev = active_prev || msg.payload()[0] != 0;
    }
    exchange_.receive(self, inbox, labels_, changed_);
  }

  if (!active_prev) {
    // No machine emitted flood messages last superstep, so nothing arrived,
    // no changed bit is set anywhere, and every machine observes the same
    // all-zero OR this superstep: global fixpoint. Send nothing (free step).
    done_[self] = 1;
    ++steps_[self];
    return;
  }

  // Boundary exchange: minimum candidate label per remote target among the
  // hosted vertices that changed, in deterministic ascending order.
  sent_[self] = exchange_.send(self, labels_, changed_, out) ? 1 : 0;
  // Convergence plane: broadcast this superstep's activity flag. Replaces
  // the lambda engine's or-reduce steps — flattened into the data superstep
  // so the program stays uniform (and therefore resumable).
  const auto flag = static_cast<std::uint64_t>(sent_[self]);
  for (MachineId j = 0; j < k_; ++j) {
    if (j != self) out.send(j, kTagCtrl, {flag}, 1);
  }
  ++steps_[self];
}

void FloodProgram::snapshot(MachineId m, WordWriter& out) {
  out.u64(steps_[m]);
  out.u64(static_cast<std::uint64_t>(sent_[m]));
  out.u64(static_cast<std::uint64_t>(done_[m]));
  for (const Vertex v : dg_->vertices_of(m)) {
    out.u64(labels_[v]);
    out.u64(static_cast<std::uint64_t>(changed_[v]));
  }
}

void FloodProgram::restore(MachineId m, WordReader& in) {
  // Frames come from disk: validate every word that later indexes memory or
  // is read as a flag. Labels only ever decrease from v, so label <= v.
  steps_[m] = in.u64();
  sent_[m] = restore_flag(in, "flood restore: `sent` flag word is not 0/1");
  done_[m] = restore_flag(in, "flood restore: `done` flag word is not 0/1");
  for (const Vertex v : dg_->vertices_of(m)) {
    labels_[v] = in.u64();
    KMM_CHECK_MSG(labels_[v] <= v, "flood restore: `label` word exceeds its vertex id");
    changed_[v] = restore_flag(in, "flood restore: `changed` flag word is not 0/1");
  }
}

ResumableFloodResult resumable_flood_connectivity(Cluster& cluster,
                                                  const DistributedGraph& dg,
                                                  const ResumableFloodConfig& config) {
  const StatsScope scope(cluster);
  const std::size_t n = dg.num_vertices();
  const std::uint64_t cap =
      config.max_supersteps != 0 ? config.max_supersteps : static_cast<std::uint64_t>(n) + 8;
  FloodProgram program(dg, cluster.k());
  Runtime rt(cluster, config, config.fault);
  // Driven step-by-step rather than via Runtime::run so exhausting the cap
  // reports converged=false instead of aborting — a durable first lifetime
  // is "killed" exactly this way, with its state living on in the store.
  for (std::uint64_t s = 0; s < cap && !program.done(); ++s) {
    (void)rt.step(program);
  }

  ResumableFloodResult result;
  result.converged = program.done();
  result.supersteps = program.supersteps();
  result.labels = program.labels();
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
