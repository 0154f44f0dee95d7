// The durable checkpoint & restart plane (src/durable/ + the FaultPlane tee
// and the serving layer's query journal). Invariants pinned here:
//   * a frame round-trips bit-for-bit through encode/decode, including the
//     ledger's accumulator floating-point internals;
//   * a run killed between two supersteps and resumed from its newest
//     durable generation produces the SAME answer and a ledger bit-identical
//     to an uninterrupted run, for every thread count — the repo's headline
//     thread-invariance invariant extended across process lifetimes;
//   * corruption at rest (a byte flipped in any frame region, a torn tail)
//     is detected by the CRC/codec taxonomy, surfaced as a structured
//     DurableError, and NEVER silently restored — recovery falls back to the
//     previous intact generation;
//   * stale generations (serialized-state version, fingerprint, cluster
//     width) are rejected by the RecoveryManager, not restored;
//   * the query journal's replay returns exactly the submitted-but-never-
//     completed set, idempotent by id, skipping torn tail records.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "kmm.hpp"

namespace kmm {
namespace {

Graph test_graph(std::size_t n = 256, std::uint64_t seed = 4242) {
  Rng rng(seed);
  return gen::gnm(n, 3 * n, rng);
}

/// Fresh unique directory under the test's scratch space.
std::string temp_dir(const char* tag) {
  std::string tmpl = ::testing::TempDir() + "kmm_durable_" + tag + "_XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  const char* made = ::mkdtemp(buf.data());
  EXPECT_NE(made, nullptr);
  return std::string(buf.data());
}

/// Full-ledger bit image (scalars + accumulator internals + per-machine
/// vectors) — the strongest equality two ClusterStats can satisfy.
std::vector<std::uint64_t> ledger_words(const ClusterStats& stats) {
  WordWriter w;
  encode_ledger(stats, w);
  return std::move(w).take();
}

std::vector<std::uint64_t> read_words_or_die(const std::string& path) {
  std::vector<std::uint64_t> words;
  std::string error;
  bool truncated = false;
  EXPECT_TRUE(read_file_words(path, words, &error, &truncated)) << error;
  EXPECT_FALSE(truncated);
  return words;
}

void write_bytes_or_die(const std::string& path, const void* data, std::size_t bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(data, 1, bytes, f), bytes);
  ASSERT_EQ(std::fclose(f), 0);
}

// ------------------------------------------------------------------- crc64

TEST(Crc64, KnownAnswerAndSensitivity) {
  // CRC-64/XZ check value for the standard "123456789" vector.
  EXPECT_EQ(crc64("123456789", 9), 0x995DC9BBDF1939FAULL);
  EXPECT_EQ(crc64(nullptr, 0), 0u);
  const std::uint64_t words[3] = {1, 2, 3};
  const std::uint64_t base = crc64_words({words, 3});
  std::uint64_t flipped[3] = {1, 2, 3};
  flipped[1] ^= 1ULL << 17;
  EXPECT_NE(crc64_words({flipped, 3}), base);
}

/// The textbook bit-at-a-time CRC-64/XZ, independent of the table code.
std::uint64_t crc64_bitwise(const unsigned char* bytes, std::size_t len, std::uint64_t seed) {
  std::uint64_t crc = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    crc ^= bytes[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ 0xC96C5795D7870F42ULL : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc64, SliceMatchesBytewiseReference) {
  std::vector<unsigned char> buf(3 * 12288 + 200);
  std::uint64_t x = 0x1234;
  for (unsigned char& b : buf) {
    x = split(x, 1);
    b = static_cast<unsigned char>(x >> 56);
  }
  // Every length 0..72 at every start offset 0..7: word loop, byte tail and
  // unaligned loads.
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 72; ++len) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc64(p, len), crc64_bitwise(p, len, 0)) << "len=" << len << " off=" << offset;
      ASSERT_EQ(crc64(p, len, 0xABCDEF), crc64_bitwise(p, len, 0xABCDEF))
          << "seeded len=" << len << " off=" << offset;
    }
  }
  // Lengths around the interleaved-lane block (3 x 4 KiB) and its multiples.
  for (const std::size_t len : {12287u, 12288u, 12289u, 12295u, 24576u, 24600u, 36864u + 7}) {
    for (std::size_t offset = 0; offset < 8; ++offset) {
      const unsigned char* p = buf.data() + offset;
      ASSERT_EQ(crc64(p, len, 77), crc64_bitwise(p, len, 77)) << "len=" << len;
    }
  }
  // Chaining contract: crc64(ab) == crc64(b, crc64(a)) at every split point.
  constexpr std::size_t kChainLen = 72;
  for (std::size_t offset = 0; offset < 8; ++offset) {
    const unsigned char* p = buf.data() + offset;
    const std::uint64_t whole = crc64(p, kChainLen);
    for (std::size_t split_at = 0; split_at <= kChainLen; ++split_at) {
      ASSERT_EQ(crc64(p + split_at, kChainLen - split_at, crc64(p, split_at)), whole)
          << "split=" << split_at << " off=" << offset;
    }
  }
  const std::size_t long_len = buf.size() - 8;
  const std::uint64_t whole = crc64(buf.data(), long_len);
  for (std::size_t split_at = 0; split_at <= long_len; split_at += 997) {
    ASSERT_EQ(crc64(buf.data() + split_at, long_len - split_at, crc64(buf.data(), split_at)),
              whole)
        << "split=" << split_at;
  }
}

// ------------------------------------------------------- frame round-trip

TEST(DurablePlane, FrameRoundTripsBitForBit) {
  DurableFrame frame;
  frame.clear(3);
  frame.state_version = 7;
  frame.fingerprint = 0xFEEDFACECAFEBEEFULL;
  frame.ordinal = 42;
  frame.machine_words[0] = {1, 2, 3};
  frame.machine_words[1] = {};
  frame.machine_words[2] = {0xFFFFFFFFFFFFFFFFULL};
  frame.ledger.rounds = 11;
  frame.ledger.supersteps = 12;
  frame.ledger.messages = 13;
  frame.ledger.local_messages = 14;
  frame.ledger.total_bits = 15;
  frame.ledger.max_link_bits = 16;
  frame.ledger.cut_bits = 17;
  frame.ledger.last_superstep_link_bits = 18;
  frame.ledger.superstep_link_max.add(3.5);
  frame.ledger.superstep_link_max.add(8.25);
  frame.ledger.sent_bits_by_machine = {100, 200, 300};
  frame.ledger.received_bits_by_machine = {300, 200, 100};
  frame.inbox[1].push_back(Message::make(0, 1, 9, std::vector<std::uint64_t>{5, 6}, 128,
                                         frame.payloads));
  frame.inbox[1].push_back(Message::make(2, 1, 4, std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6},
                                         0, frame.payloads));  // spilled to the arena
  frame.inbox[2].push_back(Message::make(1, 2, 2, std::vector<std::uint64_t>{0}, 1,
                                         frame.payloads));

  WordWriter w;
  encode_frame(frame, w);
  const auto encoded = std::move(w).take();

  const auto sections = frame_sections(encoded);
  ASSERT_TRUE(sections.ok()) << sections.error().message;
  EXPECT_EQ(sections.value().total_words, encoded.size());
  EXPECT_EQ(sections.value().crc_word, encoded.size() - 1);
  EXPECT_LT(sections.value().ledger_begin, sections.value().state_begin);
  EXPECT_LT(sections.value().state_begin, sections.value().inbox_begin);

  const auto decoded = decode_frame(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  const DurableFrame& d = decoded.value();
  EXPECT_EQ(d.state_version, frame.state_version);
  EXPECT_EQ(d.fingerprint, frame.fingerprint);
  EXPECT_EQ(d.ordinal, frame.ordinal);
  EXPECT_EQ(d.k, frame.k);
  EXPECT_EQ(d.machine_words, frame.machine_words);
  EXPECT_EQ(ledger_words(d.ledger), ledger_words(frame.ledger));
  ASSERT_EQ(d.inbox[1].size(), 2u);
  EXPECT_EQ(d.inbox[1][0].src, 0u);
  EXPECT_EQ(d.inbox[1][0].tag, 9u);
  EXPECT_EQ(d.inbox[1][0].bits, 128u);
  EXPECT_EQ(std::vector<std::uint64_t>(d.inbox[1][0].payload().begin(),
                                       d.inbox[1][0].payload().end()),
            (std::vector<std::uint64_t>{5, 6}));
  EXPECT_EQ(std::vector<std::uint64_t>(d.inbox[1][1].payload().begin(),
                                       d.inbox[1][1].payload().end()),
            (std::vector<std::uint64_t>{1, 2, 3, 4, 5, 6}));
  ASSERT_EQ(d.inbox[2].size(), 1u);
  EXPECT_EQ(d.inbox[0].size(), 0u);
}

// --------------------------------------- durable resume of a MachineProgram

/// Minimal checkpointable program (the rule-8 ring from test_fault, with a
/// serialized-state version): every machine folds received words into a
/// running value and forwards a token for `target` supersteps.
class DurableRing final : public MachineProgram {
 public:
  static constexpr std::uint64_t kStateVersion = 3;

  DurableRing(MachineId k, std::uint64_t target)
      : k_(k), target_(target), value_(k, 0), steps_(k, 0) {}

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
  [[nodiscard]] std::uint64_t state_version() const override { return kStateVersion; }

  [[nodiscard]] const std::vector<std::uint64_t>& values() const noexcept { return value_; }

 private:
  MachineId k_;
  std::uint64_t target_;
  std::vector<std::uint64_t> value_;
  std::vector<std::uint64_t> steps_;
};

TEST(DurablePlane, KilledRunResumesBitIdentically) {
  const MachineId k = 6;
  const std::uint64_t target = 24;
  const std::uint64_t kill_after = 11;  // "process death" between supersteps

  // Uninterrupted reference run (no plane at all).
  Cluster clean_cluster(ClusterConfig{k, 64});
  DurableRing clean(k, target);
  Runtime clean_rt(clean_cluster);
  for (int s = 0; s < 64 && !clean.done(); ++s) (void)clean_rt.step(clean);
  ASSERT_TRUE(clean.done());
  const auto clean_ledger = ledger_words(clean_cluster.stats());

  for (const unsigned threads : {1u, 2u, 8u}) {
    for (const unsigned cadence : {1u, 4u}) {
      const std::string dir = temp_dir("ring");

      // First lifetime: crash-free schedule, durable tee, killed by the
      // superstep cap — state at death lives only in the generation files.
      {
        DurableStore store({dir, /*fsync=*/false, /*keep_generations=*/3, 0});
        const FaultSchedule quiet(1);
        FaultPlaneConfig pcfg;
        pcfg.checkpoint_every = cadence;
        FaultPlane plane(quiet, pcfg);
        plane.set_durable_store(&store);
        Cluster cluster(ClusterConfig{k, 64});
        DurableRing program(k, target);
        Runtime rt(cluster, RuntimeConfig{threads}, &plane);
        for (std::uint64_t s = 0; s < kill_after; ++s) (void)rt.step(program);
        ASSERT_FALSE(program.done());
        EXPECT_GT(plane.stats().durable_commits, 0u);
        EXPECT_GT(store.stats().bytes_written, 0u);
      }

      // Second lifetime: recover the newest generation, arm it, run to
      // completion on a FRESH cluster + program.
      const auto rec = RecoveryManager::recover(
          dir, RecoveryManager::Expectation{DurableRing::kStateVersion, 0, k});
      ASSERT_TRUE(rec.ok()) << rec.error().message;
      EXPECT_TRUE(rec.value().rejected.empty());
      EXPECT_LE(rec.value().frame.ordinal, kill_after);

      DurableStore store({dir, false, 3, 0});
      const FaultSchedule quiet(1);
      FaultPlaneConfig pcfg;
      pcfg.checkpoint_every = cadence;
      FaultPlane plane(quiet, pcfg);
      plane.set_durable_store(&store);
      plane.arm_resume(&rec.value().frame);
      Cluster cluster(ClusterConfig{k, 64});
      DurableRing program(k, target);
      Runtime rt(cluster, RuntimeConfig{threads}, &plane);
      for (int s = 0; s < 64 && !program.done(); ++s) (void)rt.step(program);

      EXPECT_TRUE(program.done()) << "threads=" << threads << " cadence=" << cadence;
      EXPECT_EQ(plane.stats().resumes, 1u);
      // Same answer AND the full ledger bit-identical to never having died.
      EXPECT_EQ(program.values(), clean.values());
      EXPECT_EQ(ledger_words(cluster.stats()), clean_ledger)
          << "threads=" << threads << " cadence=" << cadence;
    }
  }
}

// ------------------------------------- durable resume of flood connectivity

TEST(DurablePlane, FloodConnectivityResumesBitIdentically) {
  const Graph g = test_graph(192, 99);
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  const auto ref_labels = ref::component_labels(g);

  // Uninterrupted reference run.
  Cluster clean_cluster(ClusterConfig::for_graph(n, k));
  const DistributedGraph dg0(g, VertexPartition::random(n, k, 7));
  const FloodingResult clean = flooding_connectivity(clean_cluster, dg0);
  ASSERT_TRUE(clean.converged);
  ASSERT_EQ(clean.labels.size(), ref_labels.size());
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_EQ(clean.labels[v], ref_labels[v]) << "v=" << v;
  }
  const auto clean_ledger = ledger_words(clean_cluster.stats());

  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::string dir = temp_dir("flood");
    const DistributedGraph dg(g, VertexPartition::random(n, k, 7));

    {
      DurableStore store({dir, false, 3, 0});
      const FaultSchedule quiet(1);
      FaultPlaneConfig pcfg;
      pcfg.checkpoint_every = 2;
      FaultPlane plane(quiet, pcfg);
      plane.set_durable_store(&store);
      Cluster cluster(ClusterConfig::for_graph(n, k));
      CancelPoint kill;
      kill.cancel_at_superstep(5);  // killed mid-computation
      FloodingConfig cfg;
      cfg.threads = threads;
      cfg.cancel = &kill;
      cfg.fault = &plane;
      EXPECT_THROW((void)flooding_connectivity(cluster, dg, cfg), QueryCancelled);
      EXPECT_GT(plane.stats().durable_commits, 0u);
    }

    const auto rec = RecoveryManager::recover(
        dir, RecoveryManager::Expectation{FloodProgram::kStateVersion, 0, k});
    ASSERT_TRUE(rec.ok()) << rec.error().message;

    DurableStore store({dir, false, 3, 0});
    const FaultSchedule quiet(1);
    FaultPlaneConfig pcfg;
    pcfg.checkpoint_every = 2;
    FaultPlane plane(quiet, pcfg);
    plane.set_durable_store(&store);
    plane.arm_resume(&rec.value().frame);
    Cluster cluster(ClusterConfig::for_graph(n, k));
    FloodingConfig cfg;
    cfg.threads = threads;
    cfg.fault = &plane;
    const FloodingResult res = flooding_connectivity(cluster, dg, cfg);

    EXPECT_TRUE(res.converged) << "threads=" << threads;
    EXPECT_EQ(res.labels, clean.labels);
    EXPECT_EQ(res.num_components, clean.num_components);
    EXPECT_EQ(res.supersteps, clean.supersteps);  // counted across lifetimes
    EXPECT_EQ(ledger_words(cluster.stats()), clean_ledger) << "threads=" << threads;
  }
}

/// Run a durable flood on `g` (k machines, random partition `part_seed`)
/// for at most `supersteps` supersteps, committing every `cadence` into
/// `dir`.
void durable_flood_run(const Graph& g, MachineId k, std::uint64_t part_seed,
                       const std::string& dir, unsigned cadence, std::uint64_t supersteps) {
  const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, part_seed));
  DurableStore store({dir, false, 3, 0});
  const FaultSchedule quiet(1);
  FaultPlaneConfig pcfg;
  pcfg.checkpoint_every = cadence;
  FaultPlane plane(quiet, pcfg);
  plane.set_durable_store(&store);
  Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), k));
  CancelPoint stop;
  stop.cancel_at_superstep(supersteps);
  FloodingConfig cfg;
  cfg.cancel = &stop;
  cfg.fault = &plane;
  try {
    (void)flooding_connectivity(cluster, dg, cfg);
  } catch (const QueryCancelled&) {
    // Stopped before convergence: the run lives on in the store.
  }
  EXPECT_GT(plane.stats().durable_commits, 0u);
}

TEST(DurablePlane, FloodGenerationReencodesByteIdentically) {
  // The store encodes straight from the live checkpoint store, ledger and
  // inboxes; encode_frame over the decoded DurableFrame is the same
  // encoder. Both must produce the file's exact bytes.
  const std::string dir = temp_dir("reencode");
  durable_flood_run(test_graph(300, 5), 6, 3, dir, 2, 7);
  const auto gens = DurableStore::list_generations(dir);
  ASSERT_TRUE(gens.ok());
  ASSERT_FALSE(gens.value().empty());
  for (const auto& [ordinal, path] : gens.value()) {
    const std::vector<std::uint64_t> file = read_words_or_die(path);
    const auto decoded = decode_frame(file);
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    std::size_t inbox_messages = 0;
    for (const auto& msgs : decoded.value().inbox) inbox_messages += msgs.size();
    EXPECT_GT(inbox_messages, 0u) << "generation " << ordinal;
    WordWriter w;
    encode_frame(decoded.value(), w);
    EXPECT_EQ(encoded_frame_words(decoded.value()), file.size());
    EXPECT_EQ(std::move(w).take(), file) << "generation " << ordinal;
  }
}

TEST(DurablePlaneDeath, FloodRestoreRejectsOutOfRangeWords) {
  // A frame that passes the CRC can still carry impossible state words —
  // anyone can recompute the checksum. Restore must name the bad field
  // instead of indexing past the label array or reading a flag as "true".
  const Graph g = test_graph(128, 11);
  const MachineId k = 4;
  const std::string dir = temp_dir("badwords");
  durable_flood_run(g, k, 9, dir, 2, 3);
  const auto rec = RecoveryManager::recover(dir, {FloodProgram::kStateVersion, 0, k});
  ASSERT_TRUE(rec.ok()) << rec.error().message;
  const DurableFrame& good = rec.value().frame;
  ASSERT_GE(good.machine_words[1].size(), 5u);

  // Snapshot layout per machine: steps, sent, done, then (label, changed)
  // per hosted vertex.
  struct Case {
    const char* name;
    std::size_t word;
    std::uint64_t value;
    const char* diagnostic;
  };
  const Case cases[] = {
      {"label >= n", 3, g.num_vertices() + 5, "`label` word exceeds its vertex id"},
      {"sent flag", 1, 2, "`sent` flag word is not 0/1"},
      {"changed flag", 4, 7, "`changed` flag word is not 0/1"},
  };
  for (const Case& c : cases) {
    DurableFrame bad;
    bad.clear(k);
    bad.state_version = good.state_version;
    bad.ordinal = good.ordinal;
    bad.machine_words = good.machine_words;
    bad.machine_words[1][c.word] = c.value;
    bad.ledger = good.ledger;
    for (MachineId m = 0; m < k; ++m) {
      for (const Message& msg : good.inbox[m]) {
        bad.inbox[m].push_back(Message::make(msg.src, msg.dst, msg.tag, msg.payload(), msg.bits,
                                             bad.payloads));
      }
    }
    WordWriter w;
    encode_frame(bad, w);
    const std::string bad_dir = temp_dir("badwords_frame");
    const std::string path = DurableStore::generation_path(bad_dir, bad.ordinal);
    write_bytes_or_die(path, w.words().data(), w.size() * sizeof(std::uint64_t));

    // The codec and the recovery scan accept it: the damage is semantic.
    const auto bad_rec = RecoveryManager::recover(bad_dir, {FloodProgram::kStateVersion, 0, k});
    ASSERT_TRUE(bad_rec.ok()) << c.name << ": " << bad_rec.error().message;
    const auto resume = [&] {
      const DistributedGraph dg(g, VertexPartition::random(g.num_vertices(), k, 9));
      const FaultSchedule quiet(1);
      FaultPlane plane(quiet);
      plane.arm_resume(&bad_rec.value().frame);
      Cluster cluster(ClusterConfig::for_graph(g.num_vertices(), k));
      FloodingConfig cfg;
      cfg.fault = &plane;
      (void)flooding_connectivity(cluster, dg, cfg);
    };
    EXPECT_DEATH(resume(), c.diagnostic) << c.name;
  }
}

// ---------------------------- durable resume of connectivity and MST

/// What an uninterrupted Borůvka run and a resumed one must agree on: the
/// answer in full and the complete ledger.
struct BoruvkaOutcome {
  std::vector<Label> labels;
  std::uint64_t num_components = 0;
  bool converged = false;
  std::vector<std::pair<Vertex, Vertex>> forest;
  std::vector<WeightedEdge> mst;
  std::uint64_t sampler_retries = 0;
  std::vector<std::uint64_t> ledger;
  bool operator==(const BoruvkaOutcome&) const = default;
};

BoruvkaOutcome run_engine(BoruvkaMode mode, const DistributedGraph& dg, MachineId k,
                          const BoruvkaConfig& cfg) {
  Cluster cluster(ClusterConfig::for_graph(dg.num_vertices(), k));
  const BoruvkaResult res = mode == BoruvkaMode::kMst
                                ? minimum_spanning_forest(cluster, dg, cfg)
                                : connected_components(cluster, dg, cfg);
  return BoruvkaOutcome{res.labels,      res.num_components, res.converged,
                        res.forest_edges(), res.mst_edges(),  res.sampler_retries,
                        ledger_words(cluster.stats())};
}

TEST(DurablePlane, ConnectivityAndMstResumeFromEveryGeneration) {
  Rng wrng(3);
  const Graph g = with_unique_weights(with_random_weights(test_graph(128, 21), wrng, 100000));
  const std::size_t n = g.num_vertices();
  const MachineId k = 8;
  constexpr unsigned kCadence = 3;
  const DistributedGraph dg(g, VertexPartition::random(n, k, 7));
  const FaultSchedule quiet(1);

  for (const BoruvkaMode mode : {BoruvkaMode::kConnectivity, BoruvkaMode::kMst}) {
    const char* name = mode == BoruvkaMode::kMst ? "mst" : "conn";
    BoruvkaConfig base;
    base.seed = 11;

    // Uninterrupted reference run; a silent plane counts its supersteps.
    FaultPlane counter(quiet);
    BoruvkaConfig cfg = base;
    cfg.fault = &counter;
    const BoruvkaOutcome expect = run_engine(mode, dg, k, cfg);
    ASSERT_TRUE(expect.converged) << name;
    const std::uint64_t total = counter.step_ordinal();
    ASSERT_GT(total, 2 * kCadence) << name;

    // First lifetime: stopped two supersteps before the end, with every
    // generation kept, so the frames cover every segment of the run.
    const std::string dir = temp_dir(name);
    {
      DurableStore store({dir, /*fsync=*/false, /*keep_generations=*/100000, 0});
      FaultPlaneConfig pcfg;
      pcfg.checkpoint_every = kCadence;
      FaultPlane plane(quiet, pcfg);
      plane.set_durable_store(&store);
      CancelPoint stop;
      stop.cancel_at_superstep(total - 2);
      cfg = base;
      cfg.cancel = &stop;
      cfg.fault = &plane;
      EXPECT_THROW((void)run_engine(mode, dg, k, cfg), QueryCancelled) << name;
    }
    const auto gens = DurableStore::list_generations(dir);
    ASSERT_TRUE(gens.ok()) << name;
    ASSERT_EQ(gens.value().size(), (total - 2 + kCadence - 1) / kCadence) << name;

    // Second lifetime, once per generation and thread count.
    for (const auto& [ordinal, path] : gens.value()) {
      const auto frame =
          RecoveryManager::load_frame(path, {BoruvkaEngine::kStateVersion, 0, k});
      ASSERT_TRUE(frame.ok()) << name << " " << frame.error().message;
      for (const unsigned threads : {1u, 2u, 8u}) {
        FaultPlane plane(quiet);
        plane.arm_resume(&frame.value());
        cfg = base;
        cfg.threads = threads;
        cfg.fault = &plane;
        EXPECT_EQ(run_engine(mode, dg, k, cfg), expect)
            << name << " generation " << ordinal << " threads=" << threads;
        EXPECT_EQ(plane.stats().resumes, 1u);
      }
    }
  }
}

TEST(DurablePlaneDeath, BoruvkaRestoreRejectsOutOfRangeWords) {
  // restore() decodes words a frame carried from disk. Take machine 1's
  // snapshot after phase 0's proxy step, when it holds parts, hosted
  // labels and proxy records, and damage one word per case.
  const Graph g = test_graph(128, 11);
  const std::size_t n = g.num_vertices();
  const MachineId k = 4;
  const DistributedGraph dg(g, VertexPartition::random(n, k, 9));
  Cluster cluster(ClusterConfig::for_graph(n, k));
  const BoruvkaConfig cfg;
  BoruvkaEngine engine(cluster, dg, cfg, BoruvkaMode::kConnectivity);
  Runtime rt(cluster, cfg);
  for (int s = 0; s < 4; ++s) {  // activity reduce, SS1, proxy step
    (void)rt.step(engine, engine.next_mode());
    engine.after_step();
  }
  WordWriter w;
  engine.snapshot(1, w);
  const std::vector<std::uint64_t> good = std::move(w).take();
  {
    WordReader r(good);
    engine.restore(1, r);
    EXPECT_TRUE(r.done());
  }

  // Snapshot layout per machine: mode, phase, segment, t, rho, bit,
  // converged, components, sampler retries, one label per hosted vertex;
  // then parts (count; label, finished, size, vertices), resend entries
  // (count; label, threshold), proxy records (count; label, state, ...),
  // forest edges and MST edges.
  const std::size_t hosted = dg.vertices_of(1).size();
  const std::size_t parts_at = 9 + hosted;
  std::size_t pos = parts_at + 1;
  const std::size_t first_part_vertex = pos + 3;
  for (std::uint64_t p = 0; p < good[parts_at]; ++p) pos += 3 + good[pos + 2];
  pos += 1 + 2 * good[pos];
  const std::size_t records_at = pos;
  ASSERT_GE(good[parts_at], 2u);
  ASSERT_GE(good[records_at], 2u);
  // A record's words: label, state, parent, children_left, thr,
  // has_candidate, cand_in, cand_out, cand_w, target, then the srcs mask.
  const std::size_t second_part_label = first_part_vertex + good[parts_at + 3];
  const std::size_t record_words = 10 + (k + 63) / 64;

  struct Case {
    const char* name;
    std::size_t word;
    std::uint64_t value;
    const char* diagnostic;
  };
  const Case cases[] = {
      {"mode", 0, 1, "`mode` word does not match"},
      {"segment", 2, 99, "`segment` word is out of range"},
      {"label >= n", 9, n + 5, "`label` word is not below n"},
      {"foreign vertex", first_part_vertex, dg.vertices_of(0).front(), "not hosted here"},
      {"record state", records_at + 2, 9, "record `state` word is out of range"},
      {"count", parts_at, std::uint64_t{1} << 40, "`count` word exceeds the remaining words"},
      {"bit flag", 5, 2, "`bit` flag word is not 0/1"},
      {"converged flag", 6, 2, "`converged` flag word is not 0/1"},
      {"finished flag", parts_at + 2, 2, "`finished` flag word is not 0/1"},
      {"has_candidate flag", records_at + 6, 2, "`has_candidate` flag word is not 0/1"},
      {"duplicate part label", second_part_label, good[parts_at + 1],
       "a part label appears twice"},
      {"duplicate record label", records_at + 1 + record_words, good[records_at + 1],
       "a record label appears twice"},
      {"srcs bit >= k", records_at + 11, good[records_at + 11] | (std::uint64_t{1} << k),
       "`srcs` mask names a machine >= k"},
  };
  for (const Case& c : cases) {
    std::vector<std::uint64_t> bad = good;
    bad[c.word] = c.value;
    EXPECT_DEATH(
        {
          WordReader r(bad);
          engine.restore(1, r);
        },
        c.diagnostic)
        << c.name;
  }
}

// --------------------------------------------- corruption at rest (CRC)

/// Commit two distinguishable generations of a tiny run into `dir`; returns
/// the paths, oldest first.
std::vector<std::string> commit_two_generations(const std::string& dir) {
  DurableStore store({dir, false, 3, 0});
  const FaultSchedule quiet(1);
  FaultPlaneConfig pcfg;
  pcfg.checkpoint_every = 4;
  FaultPlane plane(quiet, pcfg);
  plane.set_durable_store(&store);
  Cluster cluster(ClusterConfig{4, 64});
  DurableRing program(4, 12);
  Runtime rt(cluster, RuntimeConfig{1}, &plane);
  for (int s = 0; s < 7; ++s) (void)rt.step(program);  // commits at ordinals 0 and 4
  const auto gens = DurableStore::list_generations(dir);
  EXPECT_TRUE(gens.ok());
  std::vector<std::string> paths;
  for (const auto& [ordinal, path] : gens.value()) paths.push_back(path);
  EXPECT_EQ(paths.size(), 2u);
  return paths;
}

TEST(DurablePlane, CorruptRegionsAreDetectedAndNeverRestored) {
  const std::string dir = temp_dir("corrupt");
  const auto paths = commit_two_generations(dir);
  ASSERT_EQ(paths.size(), 2u);
  const std::string& newest = paths.back();
  const std::vector<std::uint64_t> pristine = read_words_or_die(newest);
  const auto sections = frame_sections(pristine);
  ASSERT_TRUE(sections.ok());
  const FrameSections& sec = sections.value();
  const RecoveryManager::Expectation expect{DurableRing::kStateVersion, 0, 4};

  struct Case {
    const char* name;
    std::size_t word;  // byte 3 of this word gets flipped
    DurableErrorCode want;
  };
  const Case cases[] = {
      {"header magic", 0, DurableErrorCode::kBadMagic},
      {"header format version", 1, DurableErrorCode::kBadVersion},
      {"ledger", sec.ledger_begin, DurableErrorCode::kCrcMismatch},
      {"state words", sec.state_begin, DurableErrorCode::kCrcMismatch},
      {"inbox", sec.inbox_begin, DurableErrorCode::kCrcMismatch},
      {"crc word", sec.crc_word, DurableErrorCode::kCrcMismatch},
  };
  for (const Case& c : cases) {
    ASSERT_LT(c.word, pristine.size()) << c.name;
    std::vector<std::uint64_t> mutated = pristine;
    mutated[c.word] ^= 0xFFULL << 24;
    write_bytes_or_die(newest, mutated.data(), mutated.size() * sizeof(std::uint64_t));

    // The single-file loader names the exact failure...
    const auto direct = RecoveryManager::load_frame(newest, expect);
    ASSERT_FALSE(direct.ok()) << c.name;
    EXPECT_EQ(direct.error().code, c.want) << c.name;
    EXPECT_EQ(direct.error().path, newest) << c.name;

    // ...and the directory scan falls back to the older intact generation,
    // reporting the rejection rather than silently restoring anything.
    const auto rec = RecoveryManager::recover(dir, expect);
    ASSERT_TRUE(rec.ok()) << c.name << ": " << rec.error().message;
    EXPECT_EQ(rec.value().path, paths.front()) << c.name;
    ASSERT_EQ(rec.value().rejected.size(), 1u) << c.name;
    EXPECT_EQ(rec.value().rejected[0].error.code, c.want) << c.name;
  }

  // A torn write (non-word-aligned tail) is kTruncated, same fallback.
  write_bytes_or_die(newest, pristine.data(), pristine.size() * sizeof(std::uint64_t) - 3);
  const auto torn = RecoveryManager::load_frame(newest, expect);
  ASSERT_FALSE(torn.ok());
  EXPECT_EQ(torn.error().code, DurableErrorCode::kTruncated);
  const auto rec = RecoveryManager::recover(dir, expect);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().path, paths.front());

  // Both generations corrupt: structured kNoGeneration, never an abort.
  write_bytes_or_die(paths.front(), pristine.data(), 5);
  const auto none = RecoveryManager::recover(dir, expect);
  ASSERT_FALSE(none.ok());
  EXPECT_EQ(none.error().code, DurableErrorCode::kNoGeneration);
}

TEST(DurablePlane, StaleGenerationsAreRejected) {
  const std::string dir = temp_dir("stale");
  const auto paths = commit_two_generations(dir);
  const std::string& newest = paths.back();

  const auto wrong_state = RecoveryManager::load_frame(
      newest, {DurableRing::kStateVersion + 1, 0, 4});
  ASSERT_FALSE(wrong_state.ok());
  EXPECT_EQ(wrong_state.error().code, DurableErrorCode::kStateVersionMismatch);

  const auto wrong_print = RecoveryManager::load_frame(
      newest, {DurableRing::kStateVersion, 0xDEAD, 4});
  ASSERT_FALSE(wrong_print.ok());
  EXPECT_EQ(wrong_print.error().code, DurableErrorCode::kFingerprintMismatch);

  const auto wrong_k = RecoveryManager::load_frame(
      newest, {DurableRing::kStateVersion, 0, 8});
  ASSERT_FALSE(wrong_k.ok());
  EXPECT_EQ(wrong_k.error().code, DurableErrorCode::kClusterWidthMismatch);

  // Every generation stale -> kNoGeneration with the rejections summarized.
  const auto rec = RecoveryManager::recover(dir, {DurableRing::kStateVersion + 1, 0, 4});
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.error().code, DurableErrorCode::kNoGeneration);
  EXPECT_NE(rec.error().message.find("state"), std::string::npos);

  const auto empty = RecoveryManager::recover(temp_dir("empty"), {1, 0, 0});
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.error().code, DurableErrorCode::kNoGeneration);
}

TEST(DurablePlane, StorePrunesOldGenerations) {
  const std::string dir = temp_dir("prune");
  DurableStore store({dir, false, /*keep_generations=*/2, 0});
  DurableFrame frame;
  for (std::uint64_t ordinal : {0u, 3u, 6u, 9u}) {
    frame.clear(1);
    frame.ordinal = ordinal;
    frame.machine_words[0] = {ordinal};
    frame.ledger.sent_bits_by_machine = {0};
    frame.ledger.received_bits_by_machine = {0};
    const auto committed = store.commit(frame);
    ASSERT_TRUE(committed.ok()) << committed.error().message;
  }
  const auto gens = DurableStore::list_generations(dir);
  ASSERT_TRUE(gens.ok());
  ASSERT_EQ(gens.value().size(), 2u);
  EXPECT_EQ(gens.value()[0].first, 6u);
  EXPECT_EQ(gens.value()[1].first, 9u);
  EXPECT_EQ(store.stats().pruned, 2u);
}

// ----------------------------------------------------------- query journal

TEST(QueryJournal, ReplayReturnsExactlyThePendingSet) {
  const std::string path = temp_dir("journal") + "/queries.log";
  {
    auto journal = QueryJournal::open(path, /*fsync=*/false);
    ASSERT_TRUE(journal.ok()) << journal.error().message;
    QueryJournal& j = *journal.value();

    QueryRequest a;
    a.kind = QueryKind::kConnectivity;
    a.seed = 7;
    QueryRequest b;
    b.kind = QueryKind::kVerifyStCut;
    b.seed = 9;
    b.budget = QueryBudget{1000, 64, 1 << 20};
    b.s = 3;
    b.t = 5;
    b.edges = {{1, 2}, {3, 4}};
    QueryRequest c;
    c.kind = QueryKind::kMst;

    j.record_submitted(1, a);
    j.record_submitted(2, b);
    j.record_submitted(3, c);
    j.record_completed(1, true);
    j.record_completed(3, false);
    j.record_completed(1, true);  // duplicate completion collapses
    EXPECT_EQ(j.stats().appended, 6u);
    EXPECT_EQ(j.stats().append_failures, 0u);
  }

  const auto replay = QueryJournal::replay(path);
  ASSERT_TRUE(replay.ok()) << replay.error().message;
  const QueryJournal::Replay& r = replay.value();
  EXPECT_EQ(r.submitted, 3u);
  EXPECT_EQ(r.completed, 2u);
  EXPECT_EQ(r.torn_records, 0u);
  EXPECT_EQ(r.max_id, 3u);
  ASSERT_EQ(r.pending.size(), 1u);
  EXPECT_EQ(r.pending[0].first, 2u);
  const QueryRequest& req = r.pending[0].second;
  EXPECT_EQ(req.kind, QueryKind::kVerifyStCut);
  EXPECT_EQ(req.seed, 9u);
  EXPECT_EQ(req.budget.deadline_ms, 1000u);
  EXPECT_EQ(req.budget.max_supersteps, 64u);
  EXPECT_EQ(req.s, 3u);
  EXPECT_EQ(req.t, 5u);
  EXPECT_EQ(req.edges, (std::vector<std::pair<Vertex, Vertex>>{{1, 2}, {3, 4}}));
}

TEST(QueryJournal, TornTailAndGarbageAreSkippedNotMisparsed) {
  const std::string path = temp_dir("torn") + "/queries.log";
  {
    auto journal = QueryJournal::open(path, false);
    ASSERT_TRUE(journal.ok());
    QueryRequest a;
    journal.value()->record_submitted(1, a);
    journal.value()->record_completed(1, true);
    journal.value()->record_submitted(2, a);
  }
  // Simulate the process dying mid-append: a half-written record with no
  // CRC, no newline; plus an alien line that checksums nothing.
  {
    std::FILE* f = std::fopen(path.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fputs("not a journal line\nC 2 1 crc=feedfeedfe", f);
    std::fclose(f);
  }
  const auto replay = QueryJournal::replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().torn_records, 2u);
  ASSERT_EQ(replay.value().pending.size(), 1u);
  // The torn completion for id 2 must NOT count: 2 stays pending.
  EXPECT_EQ(replay.value().pending[0].first, 2u);

  // Reopening for append must SEAL the torn tail: the next record lands on
  // its own line instead of welding onto the half-written one (which would
  // corrupt both). After the restarted lifetime completes id 2, replay sees
  // it — and still exactly the two torn lines, no more.
  {
    auto journal = QueryJournal::open(path, false);
    ASSERT_TRUE(journal.ok());
    journal.value()->record_completed(2, true);
  }
  const auto sealed = QueryJournal::replay(path);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(sealed.value().torn_records, 2u);
  EXPECT_EQ(sealed.value().completed, 2u);
  EXPECT_TRUE(sealed.value().pending.empty());
}

TEST(QueryJournal, ServiceJournalsSubmissionsAndCompletions) {
  const Graph g = test_graph(96, 5);
  const std::size_t n = g.num_vertices();
  const MachineId k = 4;
  const DistributedGraph dg(g, VertexPartition::random(n, k, 3));
  const std::string path = temp_dir("service") + "/queries.log";

  std::uint64_t clean_components = 0;
  {
    auto journal = QueryJournal::open(path, false);
    ASSERT_TRUE(journal.ok());
    ServiceConfig cfg;
    cfg.k = k;
    cfg.workers = 2;
    cfg.journal = journal.value().get();
    ClusterService service(dg, cfg);
    QueryRequest conn;
    conn.kind = QueryKind::kConnectivity;
    auto t1 = service.submit(conn);
    QueryRequest mst;
    mst.kind = QueryKind::kMst;
    auto t2 = service.submit(mst);
    ASSERT_TRUE(t1->wait().ok());
    ASSERT_TRUE(t2->wait().ok());
    clean_components = t1->wait().value().value;
    service.drain();
    // Simulate a query that was in flight at process death: submitted in
    // the journal, never completed.
    journal.value()->record_submitted(77, conn);
  }

  const auto replay = QueryJournal::replay(path);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(replay.value().submitted, 3u);
  EXPECT_EQ(replay.value().completed, 2u);
  ASSERT_EQ(replay.value().pending.size(), 1u);
  EXPECT_EQ(replay.value().pending[0].first, 77u);
  EXPECT_EQ(replay.value().max_id, 77u);

  // Restarted service: re-run ONLY the pending query under its original id,
  // fresh ids start past everything the journal ever issued.
  {
    auto journal = QueryJournal::open(path, false);
    ASSERT_TRUE(journal.ok());
    ServiceConfig cfg;
    cfg.k = k;
    cfg.workers = 1;
    cfg.journal = journal.value().get();
    cfg.first_query_id = replay.value().max_id + 1;
    ClusterService service(dg, cfg);
    for (const auto& [id, request] : replay.value().pending) {
      auto ticket = service.submit(request, id);
      EXPECT_EQ(ticket->id(), id);
      const QueryOutcome& outcome = ticket->wait();
      ASSERT_TRUE(outcome.ok());
      EXPECT_EQ(outcome.value().value, clean_components);
    }
    QueryRequest fresh;
    fresh.kind = QueryKind::kFlooding;
    auto ticket = service.submit(fresh);
    EXPECT_EQ(ticket->id(), 78u);
    ASSERT_TRUE(ticket->wait().ok());
    service.drain();
  }

  const auto after = QueryJournal::replay(path);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().pending.size(), 0u);  // idempotent restart: all done
  EXPECT_EQ(after.value().submitted, 4u);
}

}  // namespace
}  // namespace kmm
