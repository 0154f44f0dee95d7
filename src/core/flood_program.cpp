#include "core/flood_program.hpp"

#include <algorithm>

#include "core/flood_exchange.hpp"
#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

namespace {
constexpr std::uint32_t kTagCtrl = 2;
static_assert(kTagCtrl != FloodExchange::kTag);
}  // namespace

FloodProgram::FloodProgram(const DistributedGraph& dg, MachineId k)
    : dg_(&dg),
      k_(k),
      exchange_(dg, k),
      machines_(k) {
  for (MachineId m = 0; m < k; ++m) {
    const auto hosted = dg.vertices_of(m);
    machines_[m].labels.assign(hosted.begin(), hosted.end());
    machines_[m].changed.assign(hosted.size(), 1);
  }
}

bool FloodProgram::done() const {
  return std::all_of(machines_.begin(), machines_.end(),
                     [](const Machine& st) { return st.done != 0; });
}

std::vector<Label> FloodProgram::take_labels() {
  std::vector<Label> labels(dg_->num_vertices());
  for (MachineId m = 0; m < k_; ++m) {
    const auto hosted = dg_->vertices_of(m);
    auto& own = machines_[m].labels;
    for (std::size_t s = 0; s < hosted.size(); ++s) labels[hosted[s]] = own[s];
    std::vector<Label>().swap(own);  // freed as soon as it is gathered
  }
  return labels;
}

void FloodProgram::on_superstep(MachineId self, std::span<const Message> inbox,
                                Outbox& out) {
  Machine& st = machines_[self];
  bool active_prev = st.sent != 0;
  if (st.steps == 0) {
    // First superstep: seed the local fixpoint from every hosted vertex
    // (all changed bits start set). Nothing arrived yet and termination is
    // impossible before at least one exchange.
    exchange_.start(self, st.labels, st.changed);
    active_prev = true;
  } else {
    for (const Message& msg : inbox) {
      if (msg.tag == kTagCtrl) active_prev = active_prev || msg.payload()[0] != 0;
    }
    exchange_.receive(self, inbox, st.labels, st.changed);
  }

  if (!active_prev) {
    // No machine emitted flood messages last superstep, so nothing arrived,
    // no changed bit is set anywhere, and every machine observes the same
    // all-zero OR this superstep: global fixpoint. Send nothing (free step).
    st.done = 1;
    ++st.steps;
    return;
  }

  // Boundary exchange: minimum candidate label per remote target among the
  // hosted vertices that changed, in deterministic ascending order.
  st.sent = exchange_.send(self, st.labels, st.changed, out) ? 1 : 0;
  // Convergence plane: broadcast this superstep's activity flag, folded into
  // the data superstep so the program stays uniform (and therefore
  // resumable).
  const auto flag = static_cast<std::uint64_t>(st.sent);
  for (MachineId j = 0; j < k_; ++j) {
    if (j != self) out.send(j, kTagCtrl, {flag}, 1);
  }
  ++st.steps;
}

void FloodProgram::snapshot(MachineId m, WordWriter& out) {
  // Slot order is hosted order, so the words are (label, changed) per
  // hosted vertex in ascending id.
  const Machine& st = machines_[m];
  out.u64(st.steps);
  out.u64(static_cast<std::uint64_t>(st.sent));
  out.u64(static_cast<std::uint64_t>(st.done));
  for (std::size_t s = 0; s < st.labels.size(); ++s) {
    out.u64(st.labels[s]);
    out.u64(static_cast<std::uint64_t>(st.changed[s]));
  }
}

void FloodProgram::restore(MachineId m, WordReader& in) {
  // Frames come from disk: validate every word that later indexes memory or
  // is read as a flag. Labels only ever decrease from v, so label <= v.
  Machine& st = machines_[m];
  st.steps = in.u64();
  st.sent = restore_flag(in, "flood restore: `sent` flag word is not 0/1");
  st.done = restore_flag(in, "flood restore: `done` flag word is not 0/1");
  const auto hosted = dg_->vertices_of(m);
  for (std::size_t s = 0; s < hosted.size(); ++s) {
    st.labels[s] = restore_below(in, std::uint64_t{hosted[s]} + 1,
                                 "flood restore: `label` word exceeds its vertex id");
    st.changed[s] = restore_flag(in, "flood restore: `changed` flag word is not 0/1");
  }
}

}  // namespace kmm
