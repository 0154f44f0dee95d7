#include "core/flood_exchange.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

FloodExchange::FloodExchange(const DistributedGraph& dg, MachineId k)
    : dg_(&dg),
      message_bits_(2 * bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2))),
      plan_(k),
      built_(k, 0),
      queue_(k) {}

void FloodExchange::build(MachineId m) {
  // Count first so the plan holds exactly its cut half-edges.
  std::size_t cut = 0;
  for (const Vertex v : dg_->vertices_of(m)) {
    for (const auto& he : dg_->neighbors(v)) cut += dg_->home(he.to) != m ? 1 : 0;
  }
  auto& plan = plan_[m];
  plan.reserve(cut);
  for (const Vertex v : dg_->vertices_of(m)) {
    for (const auto& he : dg_->neighbors(v)) {
      if (dg_->home(he.to) != m) plan.push_back(std::uint64_t{he.to} << 32 | v);
    }
  }
  std::sort(plan.begin(), plan.end());
  built_[m] = 1;
}

void FloodExchange::propagate(MachineId m, std::vector<Label>& labels,
                              std::vector<char>& changed) {
  auto& queue = queue_[m];
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const Vertex v = queue[head];
    for (const auto& he : dg_->neighbors(v)) {
      if (dg_->home(he.to) != m) continue;
      if (labels[v] < labels[he.to]) {
        labels[he.to] = labels[v];
        changed[he.to] = 1;
        queue.push_back(he.to);
      }
    }
  }
  queue.clear();
}

void FloodExchange::start(MachineId m, std::vector<Label>& labels, std::vector<char>& changed) {
  queue_[m].assign(dg_->vertices_of(m).begin(), dg_->vertices_of(m).end());
  propagate(m, labels, changed);
}

void FloodExchange::receive(MachineId m, std::span<const Message> inbox,
                            std::vector<Label>& labels, std::vector<char>& changed) {
  for (const Message& msg : inbox) {
    if (msg.tag != kTag) continue;
    KMM_DCHECK(msg.payload_words() >= 2);
    const auto v = static_cast<Vertex>(msg.payload()[0]);
    KMM_CHECK_MSG(dg_->home(v) == m, "flood label for a vertex homed elsewhere");
    const Label label = msg.payload()[1];
    if (label < labels[v]) {
      labels[v] = label;
      changed[v] = 1;
      queue_[m].push_back(v);
    }
  }
  propagate(m, labels, changed);
}

bool FloodExchange::send(MachineId m, const std::vector<Label>& labels,
                         std::vector<char>& changed, Outbox& out) {
  if (!built_[m]) build(m);
  constexpr Label kNone = std::numeric_limits<Label>::max();
  const auto& plan = plan_[m];
  bool sent = false;
  for (std::size_t i = 0; i < plan.size();) {
    const auto target = static_cast<Vertex>(plan[i] >> 32);
    Label best = kNone;
    for (; i < plan.size() && static_cast<Vertex>(plan[i] >> 32) == target; ++i) {
      const auto v = static_cast<Vertex>(plan[i]);
      if (changed[v]) best = std::min(best, labels[v]);
    }
    if (best != kNone) {
      out.send(dg_->home(target), kTag, {target, best}, message_bits_);
      sent = true;
    }
  }
  for (const Vertex v : dg_->vertices_of(m)) changed[v] = 0;
  return sent;
}

}  // namespace kmm
