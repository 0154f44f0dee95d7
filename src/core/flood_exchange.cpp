#include "core/flood_exchange.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

FloodExchange::FloodExchange(const DistributedGraph& dg, MachineId k)
    : dg_(&dg),
      message_bits_(2 * bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2))),
      slot_(dg.num_vertices()),
      locals_(k) {}

FloodExchange::Local& FloodExchange::prepare(MachineId m) {
  Local& local = locals_[m];
  if (local.built) return local;
  const auto hosted = dg_->vertices_of(m);
  for (std::size_t s = 0; s < hosted.size(); ++s) slot_[hosted[s]] = static_cast<std::uint32_t>(s);
  // Count first so the plan and the adjacency hold exactly their half-edges.
  std::size_t cut = 0, inner = 0;
  for (const Vertex v : hosted) {
    for (const auto& he : dg_->neighbors(v)) {
      if (dg_->home(he.to) != m) {
        ++cut;
      } else {
        ++inner;
      }
    }
  }
  KMM_CHECK_MSG(inner <= std::numeric_limits<std::uint32_t>::max(),
                "flood: a machine's local half-edges exceed 32-bit offsets");
  local.plan.reserve(cut);
  local.offsets.reserve(hosted.size() + 1);
  local.adjacency.reserve(inner);
  local.offsets.push_back(0);
  for (std::size_t s = 0; s < hosted.size(); ++s) {
    for (const auto& he : dg_->neighbors(hosted[s])) {
      // Neighbors ascend by id, hence the local ones by slot.
      if (dg_->home(he.to) != m) {
        local.plan.push_back(std::uint64_t{he.to} << 32 | s);
      } else {
        local.adjacency.push_back(slot_[he.to]);
      }
    }
    local.offsets.push_back(static_cast<std::uint32_t>(local.adjacency.size()));
  }
  std::sort(local.plan.begin(), local.plan.end());
  local.built = true;
  return local;
}

void FloodExchange::propagate(Local& local, std::span<Label> labels, std::span<char> changed) {
  auto& queue = local.queue;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const std::uint32_t s = queue[head];
    const Label label = labels[s];
    for (std::uint32_t e = local.offsets[s]; e < local.offsets[s + 1]; ++e) {
      const std::uint32_t t = local.adjacency[e];
      if (label < labels[t]) {
        labels[t] = label;
        changed[t] = 1;
        queue.push_back(t);
      }
    }
  }
  queue.clear();
}

void FloodExchange::start(MachineId m, std::span<Label> labels, std::span<char> changed) {
  Local& local = prepare(m);
  local.queue.resize(labels.size());
  std::iota(local.queue.begin(), local.queue.end(), std::uint32_t{0});
  propagate(local, labels, changed);
}

void FloodExchange::receive(MachineId m, std::span<const Message> inbox, std::span<Label> labels,
                            std::span<char> changed) {
  Local& local = prepare(m);
  for (const Message& msg : inbox) {
    if (msg.tag != kTag) continue;
    KMM_DCHECK(msg.payload_words() >= 2);
    const auto v = static_cast<Vertex>(msg.payload()[0]);
    KMM_CHECK_MSG(dg_->home(v) == m, "flood label for a vertex homed elsewhere");
    const std::uint32_t s = slot_[v];
    const Label label = msg.payload()[1];
    if (label < labels[s]) {
      labels[s] = label;
      changed[s] = 1;
      local.queue.push_back(s);
    }
  }
  propagate(local, labels, changed);
}

bool FloodExchange::send(MachineId m, std::span<const Label> labels, std::span<char> changed,
                         Outbox& out) {
  constexpr Label kNone = std::numeric_limits<Label>::max();
  const auto& plan = prepare(m).plan;
  bool sent = false;
  for (std::size_t i = 0; i < plan.size();) {
    const auto target = static_cast<Vertex>(plan[i] >> 32);
    Label best = kNone;
    for (; i < plan.size() && static_cast<Vertex>(plan[i] >> 32) == target; ++i) {
      const auto s = static_cast<std::uint32_t>(plan[i]);
      if (changed[s]) best = std::min(best, labels[s]);
    }
    if (best != kNone) {
      out.send(dg_->home(target), kTag, {target, best}, message_bits_);
      sent = true;
    }
  }
  std::fill(changed.begin(), changed.end(), char{0});
  return sent;
}

}  // namespace kmm
