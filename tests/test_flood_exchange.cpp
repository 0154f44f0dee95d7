// FloodExchange (core/flood_exchange.hpp) against the boundary exchange it
// replaced: per superstep, gather (remote target, label) for every changed
// hosted vertex, sort, keep the first (minimum) entry per target and send
// it with 2 * bits(n) declared bits. The exchange must emit the same
// (dst, target, label) sequence per machine, with the same tag and bits, on
// both DistributedGraph backends. The reference reads global per-vertex
// arrays; the exchange reads each machine's slot-indexed copy of them
// (slot = position in vertices_of(m)).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

using Send = std::tuple<MachineId, Vertex, Label>;  // (dst, target, label)

/// Machine m's slot-indexed copy of a global per-vertex array.
template <typename T>
std::vector<T> slots_of(const DistributedGraph& dg, MachineId m, const std::vector<T>& global) {
  std::vector<T> local;
  for (const Vertex v : dg.vertices_of(m)) local.push_back(global[v]);
  return local;
}

/// Writes machine m's slot-indexed values back into a global array.
template <typename T>
void scatter(const DistributedGraph& dg, MachineId m, const std::vector<T>& local,
             std::vector<T>& global) {
  const auto hosted = dg.vertices_of(m);
  ASSERT_EQ(local.size(), hosted.size());
  for (std::size_t s = 0; s < hosted.size(); ++s) global[hosted[s]] = local[s];
}

/// The replaced gather -> sort -> unique, kept as the reference.
std::vector<Send> reference_sends(const DistributedGraph& dg, MachineId m,
                                  const std::vector<Label>& labels,
                                  const std::vector<char>& changed) {
  std::vector<std::pair<Vertex, Label>> cand;
  for (const Vertex v : dg.vertices_of(m)) {
    if (!changed[v]) continue;
    for (const auto& he : dg.neighbors(v)) {
      if (dg.home(he.to) == m) continue;
      cand.emplace_back(he.to, labels[v]);
    }
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end(),
                         [](const auto& a, const auto& b) { return a.first == b.first; }),
             cand.end());
  std::vector<Send> sends;
  for (const auto& [target, label] : cand) sends.emplace_back(dg.home(target), target, label);
  return sends;
}

/// Runs the exchange for machine m into a private shard and reassembles its
/// send sequence. Each destination bucket keeps send order; the reference
/// order is ascending target, so a bucket must be strictly ascending and a
/// merge by target restores the full sequence. `labels` and `changed` are
/// global; the exchange gets m's slots and its cleared bits are scattered
/// back.
std::vector<Send> exchange_sends(FloodExchange& ex, const DistributedGraph& dg, MachineId m,
                                 const std::vector<Label>& labels, std::vector<char>& changed,
                                 bool* sent) {
  const MachineId k = dg.machines();
  OutboxShard shard;
  shard.resize(k);
  Outbox out(shard, m, k);
  std::vector<char> local_changed = slots_of(dg, m, changed);
  *sent = ex.send(m, slots_of(dg, m, labels), local_changed, out);
  scatter(dg, m, local_changed, changed);
  const std::uint64_t bits = 2 * bits_for(std::max<std::uint64_t>(dg.num_vertices(), 2));
  std::vector<Send> sends;
  for (MachineId dst = 0; dst < k; ++dst) {
    const Message* prev = nullptr;
    for (const Message& msg : shard.buckets[dst]) {
      EXPECT_EQ(msg.tag, FloodExchange::kTag);
      EXPECT_EQ(msg.bits, bits);
      EXPECT_EQ(msg.payload_words(), 2u);
      const auto target = static_cast<Vertex>(msg.payload()[0]);
      if (prev != nullptr) {
        EXPECT_LT(prev->payload()[0], target) << "bucket " << dst;
      }
      prev = &msg;
      sends.emplace_back(dst, target, msg.payload()[1]);
    }
  }
  std::sort(sends.begin(), sends.end(),
            [](const Send& a, const Send& b) { return std::get<1>(a) < std::get<1>(b); });
  return sends;
}

void expect_matches_reference(const char* what, const DistributedGraph& dg) {
  const std::size_t n = dg.num_vertices();
  Rng rng(split(n, dg.machines()));
  FloodExchange ex(dg, dg.machines());
  // Labels drawn with ties, so the per-target minimum is exercised.
  std::vector<Label> labels(n);
  for (auto& label : labels) label = rng.next_below(n / 4 + 1);
  // Changed sets: none, all, random; the same exchange (plan built once)
  // serves all three, as it serves every superstep of a flood.
  for (const int mode : {0, 1, 2}) {
    std::vector<char> changed(n);
    for (auto& c : changed) c = mode == 1 || (mode == 2 && rng.next_below(3) == 0) ? 1 : 0;
    for (MachineId m = 0; m < dg.machines(); ++m) {
      const auto expect = reference_sends(dg, m, labels, changed);
      std::vector<char> after = changed;
      bool sent = false;
      const auto got = exchange_sends(ex, dg, m, labels, after, &sent);
      EXPECT_EQ(got, expect) << what << " mode " << mode << " machine " << m;
      EXPECT_EQ(sent, !expect.empty()) << what << " mode " << mode << " machine " << m;
      for (Vertex v = 0; v < n; ++v) {
        const char want = dg.home(v) == m ? 0 : changed[v];
        ASSERT_EQ(after[v], want) << what << ": changed bit of vertex " << v;
      }
    }
  }
}

TEST(FloodExchange, MatchesSortedCandidateReference) {
  Rng rng_gnm(7), rng_rmat(11);
  const std::vector<std::pair<const char*, Graph>> graphs = {
      {"grid", gen::grid(24, 30)},
      {"gnm", gen::gnm(800, 2400, rng_gnm)},
      // Hubs: one remote target with many hosted neighbors per machine.
      {"star", gen::star(500)},
      {"rmat", gen::rmat(1024, 3000, rng_rmat)},
  };
  for (const auto& [name, g] : graphs) {
    for (const MachineId k : {2u, 8u}) {
      const VertexPartition part = VertexPartition::random(g.num_vertices(), k, 99);
      const DistributedGraph materialized(g, part);
      expect_matches_reference(name, materialized);
      const DistributedGraph streamed =
          stream_ingest(g.num_vertices(), part, gen::edge_list_stream(g.edges(), 256)).value();
      ASSERT_FALSE(streamed.materialized());
      expect_matches_reference(name, streamed);
    }
  }
}

TEST(FloodExchange, MatchesReferenceWithoutLocalNeighborsOrHostedVertices) {
  // A bipartite split puts every neighbor of machine 0's vertices on
  // machine 1 and back, so neither machine has a local half-edge (the
  // local adjacency is empty; every half-edge is in the plan). With k
  // close to n, a random partition leaves machines that host no vertex:
  // their plan and state are empty and they send nothing.
  const std::size_t n = 40;
  const Graph cycle = gen::cycle(n);
  std::vector<MachineId> table(n);
  for (Vertex v = 0; v < n; ++v) table[v] = v % 2;
  const DistributedGraph split_dg(cycle, VertexPartition::from_table(table, 2));
  for (MachineId m = 0; m < 2; ++m) {
    for (const Vertex v : split_dg.vertices_of(m)) {
      for (const auto& he : split_dg.neighbors(v)) ASSERT_NE(split_dg.home(he.to), m);
    }
  }
  expect_matches_reference("no local neighbor", split_dg);

  Rng rng(3);
  const Graph g = gen::gnm(n, 3 * n, rng);
  const DistributedGraph crowded(g, VertexPartition::random(n, n - 2, 5));
  MachineId empty = 0;
  for (MachineId m = 0; m < crowded.machines(); ++m) {
    if (crowded.vertices_of(m).empty()) ++empty;
  }
  ASSERT_GT(empty, 0u) << "k close to n should leave a machine without vertices";
  expect_matches_reference("k close to n", crowded);
}

TEST(FloodExchange, StartAndReceiveReachTheHostedFixpoint) {
  // A path on one machine settles to label 0 from its hosted vertices
  // alone; on two machines, a label received for the cut endpoint spreads
  // through that machine's hosted run and marks each lowered vertex. State
  // is slot-indexed; on these partitions slot s of machine m is vertex
  // s + m * n / 2.
  const std::size_t n = 64;
  const Graph g = gen::path(n);
  {
    const DistributedGraph dg(g, VertexPartition::random(n, 1, 3));
    FloodExchange ex(dg, 1);
    std::vector<Label> labels(n);
    for (Vertex v = 0; v < n; ++v) labels[v] = v;
    std::vector<char> changed(n, 0);
    ex.start(0, labels, changed);
    for (Vertex v = 0; v < n; ++v) {
      EXPECT_EQ(labels[v], 0u);
      EXPECT_EQ(changed[v], v == 0 ? 0 : 1);
    }
  }
  {
    std::vector<MachineId> table(n, 1);
    for (Vertex v = 0; v < n / 2; ++v) table[v] = 0;
    const DistributedGraph dg(g, VertexPartition::from_table(table, 2));
    FloodExchange ex(dg, 2);
    std::vector<Label> labels(n / 2, 40);
    std::vector<char> changed(n / 2, 0);
    Cluster cluster(ClusterConfig::for_graph(n, 2));
    Runtime rt(cluster);
    rt.step([&](MachineId m, std::span<const Message>, Outbox& out) {
      if (m == 0) out.send(1, FloodExchange::kTag, {Vertex{n / 2}, Label{5}}, 14);
      out.send(1, FloodExchange::kTag + 1, {Vertex{0}, Label{0}}, 14);  // skipped: other tag
    });
    rt.step([&](MachineId m, std::span<const Message> inbox, Outbox&) {
      if (m == 1) ex.receive(1, inbox, labels, changed);
    });
    for (std::size_t s = 0; s < n / 2; ++s) {
      EXPECT_EQ(labels[s], 5u) << "vertex " << s + n / 2;
      EXPECT_EQ(changed[s], 1) << "vertex " << s + n / 2;
    }
  }
}

}  // namespace
}  // namespace kmm
