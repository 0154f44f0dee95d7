// The fault-injection & recovery plane (src/fault/): a seeded FaultSchedule
// is a pure function of structural keys, so every injected fault — and the
// whole recovered run — replays bit-identically across runs and thread
// counts. The invariants pinned here (CI also runs this suite under TSan):
//   * an attached plane with an empty schedule is ledger-bit-identical to
//     no plane at all (the seam costs nothing when silent);
//   * crash recovery (checkpoint/replay, state hooks) produces answers
//     equal to the fault-free run, with the recovered ledger identical for
//     every thread count;
//   * lossy links (drops, duplicates, reorders) never change answers —
//     their entire effect is deterministic extra rounds;
//   * corruption is NOT recovered: it must be *caught* downstream by the
//     raw-label referee (canonicalization would mask a uniformly
//     propagated tampered label — see kmachine_cli's --verify).

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

Graph test_graph(std::size_t n = 256, std::uint64_t seed = 4242) {
  Rng rng(seed);
  return gen::gnm(n, 3 * n, rng);
}

struct LedgerKey {
  std::uint64_t rounds, supersteps, messages, bits, link_max;
  bool operator==(const LedgerKey&) const = default;
};

LedgerKey ledger_key(const ClusterStats& s) {
  return LedgerKey{s.rounds, s.supersteps, s.messages, s.total_bits, s.max_link_bits};
}

// ------------------------------------------------------ schedule determinism

TEST(FaultPlane, ScheduleIsAPureFunctionOfSeedAndKeys) {
  const FaultProfile* chaos = FaultProfile::find("chaos");
  ASSERT_NE(chaos, nullptr);
  EXPECT_EQ(FaultProfile::find("no-such-profile"), nullptr);

  const FaultSchedule a(77, *chaos);
  const FaultSchedule b(77, *chaos);
  const FaultSchedule other(78, *chaos);

  std::vector<FaultSchedule::Crash> ca, cb;
  bool any_difference = false;
  for (std::uint64_t step = 0; step < 64; ++step) {
    a.crashes_at(step, 8, ca);
    b.crashes_at(step, 8, cb);
    ASSERT_EQ(ca.size(), cb.size()) << "step " << step;
    for (std::size_t i = 0; i < ca.size(); ++i) {
      EXPECT_EQ(ca[i].machine, cb[i].machine);
      EXPECT_EQ(ca[i].stall, cb[i].stall);
    }
    for (MachineId s = 0; s < 4; ++s) {
      for (MachineId d = 0; d < 4; ++d) {
        if (s == d) continue;
        for (std::uint64_t idx = 0; idx < 4; ++idx) {
          EXPECT_EQ(a.drop_attempts(step, s, d, idx), b.drop_attempts(step, s, d, idx));
          EXPECT_EQ(a.duplicated(step, s, d, idx), b.duplicated(step, s, d, idx));
          if (a.drop_attempts(step, s, d, idx) != other.drop_attempts(step, s, d, idx) ||
              a.duplicated(step, s, d, idx) != other.duplicated(step, s, d, idx)) {
            any_difference = true;
          }
        }
        EXPECT_EQ(a.reordered(step, s, d), b.reordered(step, s, d));
      }
    }
  }
  // A different seed is a different schedule (somewhere in the sample).
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------- silent plane changes nothing

TEST(FaultPlane, EmptySchedulePlaneIsLedgerBitIdentical) {
  const Graph g = test_graph();
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto run = [&](FaultPlane* plane) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
    BoruvkaConfig cfg;
    cfg.seed = 99;
    cfg.threads = 2;
    cfg.fault = plane;
    const auto res = connected_components(cluster, dg, cfg);
    return std::pair{res.labels, cluster.stats()};
  };

  const auto [labels_off, stats_off] = run(nullptr);
  const FaultSchedule empty(123);  // no profile, no explicit events
  FaultPlane plane(empty);
  const auto [labels_on, stats_on] = run(&plane);

  EXPECT_EQ(labels_on, labels_off);
  EXPECT_EQ(ledger_key(stats_on), ledger_key(stats_off));
  EXPECT_EQ(stats_on.local_messages, stats_off.local_messages);
  EXPECT_EQ(stats_on.cut_bits, stats_off.cut_bits);
  EXPECT_EQ(stats_on.sent_bits_by_machine, stats_off.sent_bits_by_machine);
  EXPECT_EQ(stats_on.received_bits_by_machine, stats_off.received_bits_by_machine);
  const FaultStats fs = plane.stats();
  EXPECT_EQ(fs.crashes, 0u);
  EXPECT_EQ(fs.checkpoints, 0u);
  EXPECT_EQ(fs.drops + fs.duplicates + fs.reorders + fs.corruptions, 0u);
}

// ---------------------------------------------- crash recovery (state hooks)

TEST(FaultPlane, FloodingRecoversFromCrashesThreadInvariantly) {
  const Graph g = test_graph(192, 99);
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto ref_labels = ref::component_labels(g);

  Cluster fault_free(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 7));
  const FloodingResult clean = flooding_connectivity(fault_free, dg0, FloodingConfig{});
  ASSERT_TRUE(clean.converged);

  FaultSchedule sched(11);
  sched.add_crash(1, 3);
  sched.add_crash(2, 5);
  sched.add_hang(4, 1);  // watchdog converts the hang into a crash

  std::vector<LedgerKey> per_thread;
  for (const unsigned threads : {1u, 2u, 8u}) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
    FaultPlane plane(sched);  // fresh plane per run: the ordinal is global
    FloodingConfig cfg;
    cfg.threads = threads;
    cfg.fault = &plane;
    const FloodingResult res = flooding_connectivity(cluster, dg, cfg);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.labels, clean.labels);
    ASSERT_EQ(res.labels.size(), ref_labels.size());
    for (std::size_t v = 0; v < res.labels.size(); ++v) {
      // flooding's exact-contract labels, element-wise (Label vs Vertex width)
      EXPECT_EQ(res.labels[v], ref_labels[v]) << "v=" << v;
    }
    const FaultStats fs = plane.stats();
    EXPECT_EQ(fs.crashes, 3u) << "threads=" << threads;
    EXPECT_EQ(fs.watchdog_trips, 1u);
    EXPECT_EQ(fs.restores, 3u);
    EXPECT_GT(fs.stall_rounds, 0u);
    // The stall charge is real: recovery is visible in the ledger.
    EXPECT_GT(cluster.stats().rounds, clean.stats.rounds);
    per_thread.push_back(ledger_key(cluster.stats()));
  }
  ASSERT_EQ(per_thread.size(), 3u);
  EXPECT_EQ(per_thread[0], per_thread[1]);
  EXPECT_EQ(per_thread[0], per_thread[2]);
}

TEST(FaultPlane, ConnectivityAndMstRecoverFromCrashesThreadInvariantly) {
  Rng wrng(5);
  const Graph g = with_unique_weights(with_random_weights(test_graph(192, 17), wrng, 100000));
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;

  BoruvkaConfig base;
  base.seed = 99;
  Cluster c0(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 13));
  const BoruvkaResult conn_clean = connected_components(c0, dg0, base);
  Cluster c1(ClusterConfig::for_graph(n, k));
  const BoruvkaResult mst_clean = minimum_spanning_forest(c1, dg0, base);
  ASSERT_TRUE(conn_clean.converged);
  ASSERT_TRUE(mst_clean.converged);

  FaultSchedule sched(31);
  sched.add_crash(2, 1);
  sched.add_crash(7, 4);
  sched.add_crash(11, 6);

  std::vector<LedgerKey> conn_ledgers, mst_ledgers;
  for (const unsigned threads : {1u, 2u, 8u}) {
    const DistributedGraph dg(g, VertexPartition::random(n, k, 13));

    Cluster cc(ClusterConfig::for_graph(n, k));
    FaultPlane conn_plane(sched);
    BoruvkaConfig cfg = base;
    cfg.threads = threads;
    cfg.fault = &conn_plane;
    const BoruvkaResult conn = connected_components(cc, dg, cfg);
    EXPECT_EQ(conn.labels, conn_clean.labels) << "threads=" << threads;
    EXPECT_EQ(conn.num_components, conn_clean.num_components);
    EXPECT_EQ(conn_plane.stats().crashes, 3u);
    EXPECT_EQ(conn_plane.stats().restores, 3u);
    conn_ledgers.push_back(ledger_key(cc.stats()));

    Cluster cm(ClusterConfig::for_graph(n, k));
    FaultPlane mst_plane(sched);
    cfg.fault = &mst_plane;
    const BoruvkaResult mst = minimum_spanning_forest(cm, dg, cfg);
    EXPECT_EQ(mst.labels, mst_clean.labels) << "threads=" << threads;
    EXPECT_EQ(mst.mst_edges(), mst_clean.mst_edges());
    EXPECT_EQ(mst_plane.stats().crashes, 3u);
    mst_ledgers.push_back(ledger_key(cm.stats()));
  }
  for (std::size_t i = 1; i < conn_ledgers.size(); ++i) {
    EXPECT_EQ(conn_ledgers[0], conn_ledgers[i]);
    EXPECT_EQ(mst_ledgers[0], mst_ledgers[i]);
  }
}

// ------------------------------------------------------------- lossy links

TEST(FaultPlane, LossyLinksNeverChangeAnswersOnlyRounds) {
  const Graph g = test_graph(224, 3);
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;

  BoruvkaConfig base;
  base.seed = 42;
  Cluster c0(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 9));
  const BoruvkaResult clean = connected_components(c0, dg0, base);

  const FaultSchedule sched(5, FaultProfile::named("lossy"));
  std::vector<LedgerKey> per_thread;
  for (const unsigned threads : {1u, 2u, 8u}) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    const DistributedGraph dg(g, VertexPartition::random(n, k, 9));
    FaultPlane plane(sched);
    BoruvkaConfig cfg = base;
    cfg.threads = threads;
    cfg.fault = &plane;
    const BoruvkaResult res = connected_components(cluster, dg, cfg);
    EXPECT_EQ(res.labels, clean.labels) << "threads=" << threads;
    EXPECT_EQ(res.num_components, clean.num_components);
    const FaultStats fs = plane.stats();
    EXPECT_GT(fs.drops + fs.duplicates + fs.reorders, 0u) << "threads=" << threads;
    EXPECT_EQ(fs.corruptions, 0u);  // lossy preset never tampers
    // Drops and duplicates burn wire bits: the overhead is charged rounds.
    EXPECT_GE(cluster.stats().rounds, clean.stats.rounds);
    if (fs.overhead_rounds > 0) {
      EXPECT_GT(cluster.stats().rounds, clean.stats.rounds);
    }
    per_thread.push_back(ledger_key(cluster.stats()));
  }
  ASSERT_EQ(per_thread.size(), 3u);
  EXPECT_EQ(per_thread[0], per_thread[1]);
  EXPECT_EQ(per_thread[0], per_thread[2]);
}

TEST(FaultPlane, OnlyCorruptionCanTamperWithPayloads) {
  // can_corrupt() picks flooding's convergence bound: n + 1 iterations
  // unless some payload can be tampered with in transit.
  EXPECT_FALSE(FaultSchedule(1).can_corrupt());
  EXPECT_FALSE(FaultSchedule(1, FaultProfile::named("lossy")).can_corrupt());
  EXPECT_FALSE(FaultSchedule(1, FaultProfile::named("chaos")).can_corrupt());
  EXPECT_TRUE(FaultSchedule(1, FaultProfile::named("corrupt")).can_corrupt());
  FaultSchedule links(1);
  links.add_crash(0, 1);
  links.add_link_fault(0, 0, 1, 0, LinkFaultKind::kDrop);
  links.add_link_fault(0, 0, 1, 0, LinkFaultKind::kDuplicate);
  links.add_link_fault(0, 0, 1, 0, LinkFaultKind::kReorder);
  EXPECT_FALSE(links.can_corrupt());
  links.add_link_fault(3, 1, 0, 0, LinkFaultKind::kCorrupt);
  EXPECT_TRUE(links.can_corrupt());
}

TEST(FaultPlane, CrashAndLossyFloodStaysWithinNPlusOneIterations) {
  // A round-robin path is flooding's worst case: every edge is cut, so the
  // smallest label needs n - 1 boundary hops. Crashes and lossy links leave
  // every bucket holding the fault-free messages, so the flood keeps the
  // fault-free iteration count, inside the n + 1 bound its loop checks.
  const std::size_t n = 64;
  const MachineId k = 4;
  const Graph g = gen::path(n);
  Cluster c0(ClusterConfig::for_graph(n, k));
  const FloodingResult clean = flooding_connectivity(
      c0, DistributedGraph(g, VertexPartition::round_robin(n, k)), FloodingConfig{});
  ASSERT_TRUE(clean.converged);
  EXPECT_GE(clean.supersteps, n - 1);

  FaultSchedule sched(7, FaultProfile::named("chaos"));
  sched.add_crash(5, 2);
  ASSERT_FALSE(sched.can_corrupt());
  for (const unsigned threads : {1u, 4u}) {
    Cluster cluster(ClusterConfig::for_graph(n, k));
    FaultPlane plane(sched);
    FloodingConfig cfg;
    cfg.threads = threads;
    cfg.fault = &plane;
    const FloodingResult res = flooding_connectivity(
        cluster, DistributedGraph(g, VertexPartition::round_robin(n, k)), cfg);
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.labels, clean.labels) << "threads=" << threads;
    EXPECT_EQ(res.supersteps, clean.supersteps) << "threads=" << threads;
    EXPECT_LE(res.supersteps, n + 1);
    const FaultStats fs = plane.stats();
    EXPECT_GT(fs.crashes, 1u) << "threads=" << threads;
    EXPECT_GT(fs.drops + fs.duplicates + fs.reorders, 0u) << "threads=" << threads;
  }
}

// -------------------------------------------------------------- corruption

TEST(FaultPlane, CorruptionIsCaughtByTheRawLabelReferee) {
  // Flooding's contract is exact smallest-member labels, so the referee is
  // an element-wise raw comparison against ref::component_labels — the
  // check canonical_labels() would defeat (a tampered label that floods a
  // whole component uniformly survives canonicalization).
  const Graph g = test_graph(160, 77);
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto expect = ref::component_labels(g);

  FaultProfile tamper;
  tamper.corrupt_prob = 1.0;  // every cross-machine payload's last word
  const FaultSchedule sched(3, tamper);
  FaultPlane plane(sched);

  Cluster cluster(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
  FloodingConfig cfg;
  cfg.fault = &plane;
  const FloodingResult res = flooding_connectivity(cluster, dg, cfg);

  EXPECT_GT(plane.stats().corruptions, 0u);
  ASSERT_EQ(res.labels.size(), expect.size());
  std::size_t mismatches = 0;
  for (std::size_t v = 0; v < n; ++v) {
    // The in-range invariant holds even under tampering: a corrupted label
    // is only ever adopted when smaller than a current in-range label.
    ASSERT_LT(res.labels[v], n);
    if (res.labels[v] != expect[v]) ++mismatches;
  }
  EXPECT_GT(mismatches, 0u) << "corruption went undetected by the referee";
}

TEST(FaultPlane, TamperedSketchHeaderIsRetriedNotAborted) {
  // An edgeless graph: every part sketch is the empty sketch, whose compact
  // wire form ends in a length header. The corrupt profile's XOR of that
  // last word makes the payload malformed; the proxy must reject it (no
  // abort inside the decoder), count a sampler retry and re-sketch. Plane
  // superstep 2 is the first elimination iteration's sketch-shipping step
  // (after the two or-reduce steps of the activity check), so only sketch
  // messages are tampered with.
  constexpr std::size_t n = 48;
  constexpr MachineId k = 4;
  const Graph g(n, {});
  FaultSchedule sched(5);
  for (MachineId src = 0; src < k; ++src) {
    for (MachineId dst = 0; dst < k; ++dst) {
      if (src != dst) sched.add_link_fault(2, src, dst, 0, LinkFaultKind::kCorrupt);
    }
  }
  FaultPlane plane(sched);

  Cluster cluster(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
  BoruvkaConfig cfg;
  cfg.fault = &plane;
  const BoruvkaResult res = connected_components(cluster, dg, cfg);

  // One part (and label) per message: each tampered sketch is one retry.
  EXPECT_GT(plane.stats().corruptions, 0u);
  EXPECT_EQ(res.sampler_retries, plane.stats().corruptions);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.num_components, n);
  EXPECT_TRUE(res.forest_edges().empty());
}

// -------------------------------------------- checkpoint/replay (rule 8a)

/// Minimal checkpointable program: a k-machine ring where every machine
/// folds each received word into a running value and forwards a token for
/// `target` supersteps. Cross-step state is exactly (value, steps) per
/// machine — what snapshot/restore serialize.
class RingCounter final : public MachineProgram {
 public:
  RingCounter(MachineId k, std::uint64_t target) : k_(k), target_(target),
                                                   value_(k, 0), steps_(k, 0) {}

  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override {
    for (const Message& m : inbox) value_[self] = split(value_[self], m.payload()[0]);
    if (steps_[self] < target_) {
      out.send((self + 1) % k_, 1, {split(value_[self] + steps_[self], self)}, 64);
      ++steps_[self];
    }
  }
  [[nodiscard]] bool done() const override {
    for (MachineId m = 0; m < k_; ++m) {
      if (steps_[m] < target_) return false;
    }
    return true;
  }
  [[nodiscard]] bool checkpointable() const override { return true; }
  void snapshot(MachineId m, WordWriter& w) override { w.u64(value_[m]).u64(steps_[m]); }
  void restore(MachineId m, WordReader& r) override {
    value_[m] = r.u64();
    steps_[m] = r.u64();
  }

  [[nodiscard]] const std::vector<std::uint64_t>& values() const noexcept { return value_; }

 private:
  MachineId k_;
  std::uint64_t target_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> steps_;
};

TEST(FaultPlane, CheckpointReplayRebuildsCrashedMachines) {
  const MachineId k = 6;
  const std::uint64_t target = 20;

  Cluster clean_cluster(ClusterConfig{k, 64});
  RingCounter clean(k, target);
  Runtime clean_rt(clean_cluster);
  (void)clean_rt.run(clean);
  ASSERT_TRUE(clean.done());

  for (const unsigned cadence : {1u, 4u}) {
    FaultSchedule sched(17);
    sched.add_crash(5, 2);
    sched.add_crash(13, 4);
    FaultPlaneConfig pcfg;
    pcfg.checkpoint_every = cadence;
    FaultPlane plane(sched, pcfg);

    Cluster cluster(ClusterConfig{k, 64});
    RingCounter program(k, target);
    Runtime rt(cluster, RuntimeConfig{1}, &plane);
    (void)rt.run(program);

    EXPECT_TRUE(program.done()) << "cadence=" << cadence;
    EXPECT_EQ(program.values(), clean.values()) << "cadence=" << cadence;
    const FaultStats fs = plane.stats();
    EXPECT_EQ(fs.crashes, 2u);
    EXPECT_EQ(fs.restores, 2u);
    EXPECT_GT(fs.checkpoints, 0u);
    // cadence 1 checkpoints at the crash ordinal itself (nothing to
    // replay); cadence 4 rolls back to ordinals 4 and 12 (one logged
    // superstep each).
    EXPECT_EQ(fs.replayed_steps, cadence == 1 ? 0u : 2u);
    EXPECT_GT(fs.checkpoint_words, 0u);
    EXPECT_GT(cluster.stats().rounds, clean_cluster.stats().rounds);
  }
}

// --------------------------------------------------- rule 8 is enforced

TEST(FaultPlaneDeathTest, UnrecoverableProgramAbortsWithRule8) {
  const MachineId k = 4;
  FaultSchedule sched(1);
  sched.add_crash(0, 2);
  FaultPlane plane(sched);
  Cluster cluster(ClusterConfig{k, 64});
  Runtime rt(cluster, RuntimeConfig{1}, &plane);
  // An ad-hoc lambda step with no hooks registered: not checkpointable and
  // no restore hook — nothing the plane can recover with.
  EXPECT_DEATH((void)rt.step([](MachineId self, std::span<const Message>, Outbox& out) {
                 out.send((self + 1) % 4, 1, {std::uint64_t{1}}, 64);
               }),
               "rule 8");
}

}  // namespace
}  // namespace kmm
