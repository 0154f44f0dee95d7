#include "cluster/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "util/assert.hpp"

namespace kmm {

ClusterConfig ClusterConfig::for_graph(std::size_t n, MachineId k) {
  ClusterConfig cfg;
  cfg.k = k;
  // The canonical "O(polylog n) bits per link per round": B = ceil(log2 n)^2.
  const auto lg = static_cast<std::uint64_t>(std::ceil(std::log2(std::max<std::size_t>(n, 4))));
  cfg.bandwidth_bits = std::max<std::uint64_t>(64, lg * lg);
  return cfg;
}

Expected<Cluster, BuildError> Cluster::make(ClusterConfig config) {
  if (config.k < 2) {
    return Expected<Cluster, BuildError>::err(
        {"the k-machine model needs k >= 2 (got k = " + std::to_string(config.k) + ")"});
  }
  if (config.bandwidth_bits < 1) {
    return Expected<Cluster, BuildError>::err({"per-link bandwidth must be >= 1 bit per round"});
  }
  return Cluster(config);
}

Cluster::Cluster(ClusterConfig config) : config_(config) {
  KMM_CHECK_MSG(config_.k >= 2, "the k-machine model needs k >= 2");
  KMM_CHECK(config_.bandwidth_bits >= 1);
  inboxes_.resize(config_.k);
  stats_.sent_bits_by_machine.assign(config_.k, 0);
  stats_.received_bits_by_machine.assign(config_.k, 0);
  delivered_arenas_.resize(config_.k);
  delivery_partials_.resize(config_.k);
}

void Cluster::deliver_shards_begin(std::span<OutboxShard> shards) {
  KMM_CHECK(shards.size() == config_.k);
  // The payloads of the inboxes this delivery replaces are dead: recycle
  // their arenas and hand them to the shards in exchange for the arenas
  // holding this step's payloads, which stay put (chunk memory is stable
  // across the swap, so no Message pointer moves).
  for (MachineId src = 0; src < config_.k; ++src) {
    delivered_arenas_[src].reset();
    std::swap(delivered_arenas_[src], shards[src].arena);
  }
  delivery_shards_ = shards;
}

void Cluster::deliver_shard_to(MachineId dst) {
  const MachineId k = config_.k;
  KMM_DCHECK(dst < k && delivery_shards_.size() == k);
  auto& inbox = inboxes_[dst];
  inbox.clear();  // capacity retained
  auto& partial = delivery_partials_[dst];
  partial.link_bits.clear();  // capacity retained
  partial.cross = 0;
  partial.local = 0;
  std::size_t count = 0;
  for (const auto& shard : delivery_shards_) count += shard.buckets[dst].size();
  if (count == 0) return;
  inbox.reserve(count);  // exact: a warm inbox never reallocates mid-delivery
  std::uint64_t cross = 0;
  std::uint64_t local = 0;
  for (MachineId src = 0; src < k; ++src) {
    auto& bucket = delivery_shards_[src].buckets[dst];
    // One sparse row entry per source that actually sent: buckets are
    // walked in ascending src order, so the row is ascending-src sorted by
    // construction — the invariant the finish tree-fold's merges rely on.
    std::uint64_t src_bits = 0;
    for (auto& msg : bucket) {
      KMM_DCHECK(msg.src == src && msg.dst == dst);
      if (src == dst) {
        ++local;
      } else {
        ++cross;
        src_bits += msg.wire_bits();
      }
      inbox.push_back(msg);
    }
    bucket.clear();
    if (src_bits > 0) partial.link_bits.emplace_back(src, src_bits);
  }
  partial.cross = cross;
  partial.local = local;
}

void Cluster::fold_merge(LedgerFold& into, LedgerFold& from) {
  into.total += from.total;
  into.max_link = std::max(into.max_link, from.max_link);
  into.cut += from.cut;
  into.cross += from.cross;
  into.local += from.local;
  // Merge the ascending per-source sent lists, summing equal sources.
  fold_merge_tmp_.clear();
  std::size_t a = 0, b = 0;
  while (a < into.sent.size() && b < from.sent.size()) {
    if (into.sent[a].first < from.sent[b].first) {
      fold_merge_tmp_.push_back(into.sent[a++]);
    } else if (from.sent[b].first < into.sent[a].first) {
      fold_merge_tmp_.push_back(from.sent[b++]);
    } else {
      fold_merge_tmp_.emplace_back(into.sent[a].first,
                                   into.sent[a].second + from.sent[b].second);
      ++a;
      ++b;
    }
  }
  for (; a < into.sent.size(); ++a) fold_merge_tmp_.push_back(into.sent[a]);
  for (; b < from.sent.size(); ++b) fold_merge_tmp_.push_back(from.sent[b]);
  into.sent.swap(fold_merge_tmp_);
  from.sent.clear();
}

std::uint64_t Cluster::deliver_shards_finish() {
  const MachineId k = config_.k;
  delivery_shards_ = {};
  std::uint64_t moved = 0;
  for (MachineId d = 0; d < k; ++d) {
    moved += delivery_partials_[d].cross + delivery_partials_[d].local;
  }
  if (moved == 0) return 0;  // nothing moved: a free superstep
  // Hierarchical ledger reduction: leaf d summarizes destination d's sparse
  // row (its per-source sent list is already ascending), then the k leaves
  // are folded pairwise into one root. Every folded quantity is an unsigned
  // sum or maximum of per-link values, so the tree order — like any fold
  // order — reproduces the per-message ledger bit-for-bit. Footprint is
  // O(touched links) for any k.
  fold_nodes_.resize(k);  // inner capacity retained across supersteps
  for (MachineId d = 0; d < k; ++d) {
    auto& leaf = fold_nodes_[d];
    auto& partial = delivery_partials_[d];
    leaf.total = 0;
    leaf.max_link = 0;
    leaf.cut = 0;
    leaf.cross = partial.cross;
    leaf.local = partial.local;
    leaf.sent.clear();
    for (const auto& [src, bits] : partial.link_bits) {
      leaf.total += bits;
      leaf.max_link = std::max(leaf.max_link, bits);
      if (!cut_side_.empty() && cut_side_[src] != cut_side_[d]) leaf.cut += bits;
      leaf.sent.emplace_back(src, bits);
    }
    stats_.received_bits_by_machine[d] += leaf.total;
    partial.link_bits.clear();
    partial.cross = 0;
    partial.local = 0;
  }
  for (std::size_t step = 1; step < k; step *= 2) {
    for (std::size_t i = 0; i + step < k; i += 2 * step) {
      fold_merge(fold_nodes_[i], fold_nodes_[i + step]);
    }
  }
  LedgerFold& root = fold_nodes_[0];
  stats_.total_bits += root.total;
  stats_.cut_bits += root.cut;
  for (const auto& [src, bits] : root.sent) stats_.sent_bits_by_machine[src] += bits;
  root.sent.clear();
  stats_.messages += root.cross;
  stats_.local_messages += root.local;
  const std::uint64_t max_load = root.max_link;
  const std::uint64_t rounds =
      max_load == 0 ? 0 : (max_load + config_.bandwidth_bits - 1) / config_.bandwidth_bits;
  stats_.rounds += rounds;
  ++stats_.supersteps;
  stats_.max_link_bits = std::max(stats_.max_link_bits, max_load);
  stats_.last_superstep_link_bits = max_load;
  if (max_load > 0) stats_.superstep_link_max.add(static_cast<double>(max_load));
  return rounds;
}

std::span<const Message> Cluster::inbox(MachineId m) const {
  KMM_CHECK(m < config_.k);
  return inboxes_[m];
}

void Cluster::clear_inbox(MachineId m) {
  KMM_CHECK(m < config_.k);
  inboxes_[m].clear();  // capacity retained; payload arenas recycle next delivery
}

void Cluster::inject_inbox(MachineId m, const Message& msg) {
  KMM_CHECK(m < config_.k && msg.dst == m);
  Message copy = msg;
  // Inbox lifetime for the payload: delivered_arenas_[m] is reset by the
  // next delivery, which replaces every inbox, so the copy can never outlive
  // its words (appending moves none of the payloads already there).
  copy.reintern(delivered_arenas_[m]);
  inboxes_[m].push_back(copy);
}

void Cluster::charge_rounds(std::uint64_t rounds) { stats_.rounds += rounds; }

void Cluster::restore_stats(const ClusterStats& stats) {
  KMM_CHECK_MSG(stats.sent_bits_by_machine.size() == config_.k &&
                    stats.received_bits_by_machine.size() == config_.k,
                "restored ledger's per-machine vectors must match the cluster width");
  stats_ = stats;
}

void Cluster::track_cut(std::vector<std::uint8_t> side) {
  KMM_CHECK_MSG(side.size() == config_.k, "cut side vector must cover all machines");
  cut_side_ = std::move(side);
}

}  // namespace kmm
