#pragma once
// The Borůvka-style engine behind both the O~(n/k^2) connectivity algorithm
// (Section 2) and the MST algorithm (Section 3.1).
//
// One *phase* executes, in order:
//
//   1. shared-randomness charge        (Section 2.2 relay cost)
//   2. outgoing-edge selection loop    (Sections 2.3-2.4; for MST the
//      Section 3.1 weight-threshold elimination until the MWOE is
//      *confirmed* by an empty restricted sketch)
//   3. DRR ranking + child registration (Section 2.5)
//   4. level-wise tree merging with per-iteration fresh proxies and
//      proxy-to-proxy record handoffs   (Section 2.5, Lemma 5)
//   5. termination check                (O(1)-round OR-reduce)
//
// All inter-machine coordination happens through Cluster messages, so the
// round/bit ledger reflects the full protocol, including label/weight
// lookups at home machines and all control traffic.
//
// Execution: the engine is one checkpointable MachineProgram (porting
// recipe rules 8 and 10 in runtime/runtime.hpp). Every machine's state
// carries its position — phase, protocol segment and elimination or merge
// iteration — so a handler's next position follows from its own state and
// inbox alone, and the whole computation is (per-machine words + inbox).
// run_boruvka drives it step by step until done(), exactly as
// flooding_connectivity drives FloodProgram, so one recovery mode serves
// plain runs, in-process crash recovery and durable resume after a process
// death. The three OR-reduces (active parts, elimination, merge) stay
// explicit two-superstep control segments: machine 0 collects the reports
// and broadcasts the outcome, and every other machine reads it from its
// inbox at the start of its next handler. With config.threads > 1 the k
// machines' handlers run concurrently; they only write machine-indexed
// state (machine_parts_[i], proxy_records_[i], builders_[i], ...), and
// each machine sketches with its own builder, rebound from its own
// position, so no handler rebinds a builder another machine reads. A
// component's finished flag lives on each machine's part entry, read and
// written only by the machines holding a part of it. The cluster ledger is
// identical for every thread count (see runtime/runtime.hpp for why, and
// tests/test_runtime.cpp for proof).
//
// Registry contract (the allocation-free sketch plane, mirroring the
// message plane of PR 3): all per-machine and proxy-side component state
// lives in LabelRegistry instances — flat label -> slot tables with
// free-list slot recycling and a sorted touched-list for iteration — never
// in tree maps. The rules that keep the ledger bit-identical and the steady
// state allocation-free:
//
//  * every loop that *emits messages* iterates via for_each_sorted(), which
//    reproduces the ordered-map ascending-label order exactly (the golden
//    ledger in tests/test_golden_stats.cpp pins this); order-independent
//    scans use the cheaper for_each();
//  * registries, sketch pools (SketchPool), WordWriters, and all scratch
//    vectors are machine-indexed members — a handler touches only slot i,
//    which is what makes the handlers race-free without locks;
//  * cleared containers retain capacity (registry clear() recycles slots
//    with their payload storage; Record::reset re-assigns the machine mask
//    in place), so iteration t+1 reuses iteration t's memory: after warmup
//    an elimination iteration performs zero heap allocations
//    (tests/test_alloc_steady_state.cpp and bench_boruvka_hotpath measure
//    this);
//  * incoming sketches are merged wire-level — L0Sampler::add_serialized
//    adds each copy's used prefix of 3-word cells (the compact wire form,
//    sketch/l0_sampler.hpp) straight off the message payload into a pooled
//    accumulator; no per-message sketch is ever materialized, and only
//    cells some update touched are moved or added. A payload the decoder
//    rejects counts as a failed recovery (sampler_retries), never an abort.
//
// Modes:
//  * kConnectivity — samples any outgoing edge; merge edges form a spanning
//    forest (each edge recorded by the proxy machine that performed the
//    merge, i.e. the relaxed "some machine knows each edge" criterion of
//    Theorem 2(a) applied to spanning trees).
//  * kMst — iterates the elimination loop per component until the minimum
//    weight outgoing edge is confirmed; every confirmed MWOE is output
//    (cut property), so with distinct weights the union over machines is
//    exactly the MST.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/distributed_graph.hpp"
#include "cluster/proxy.hpp"
#include "cluster/shared_randomness.hpp"
#include "core/common.hpp"
#include "core/label_registry.hpp"
#include "runtime/runtime.hpp"
#include "sketch/graph_sketch.hpp"
#include "sketch/sketch_pool.hpp"

namespace kmm {

enum class BoruvkaMode { kConnectivity, kMst };

/// How sampled inter-component edges turn into merges (Section 2.5).
enum class MergeRule {
  /// Distributed random ranking: attach to the selected neighbor iff its
  /// rank is higher; trees of depth O(log n) (the paper's default).
  kDrr,
  /// Footnote 9's simpler alternative: components flip a shared coin and a
  /// merge happens only along edges from a 0-component to a 1-component;
  /// trees have depth 1 but only ~1/4 of selections merge per phase.
  kCoinFlip,
};

/// The runtime knobs (threads, obs, cancel, pool) come from RuntimeConfig
/// and reach every Runtime this config builds: the engine and the
/// BoruvkaConfig-driven passes (rep_mst, two_edge, verification). Results
/// and the cluster ledger are identical for every thread count.
struct BoruvkaConfig : RuntimeConfig {
  std::uint64_t seed = 1;        // master seed for the shared random tape
  int sketch_copies = 3;         // l0-sampler repetitions
  int max_phases = 0;            // 0 => the Lemma 7 bound 12*ceil(log2 n)
  bool charge_randomness = true; // charge the Section 2.2 relay each phase
  bool count_components = true;  // run the final counting protocol
  int max_elimination_iterations = 200;  // safety cap (expected O(log n))
  int max_merge_iterations = 200;        // safety cap (expected O(log n))
  MergeRule merge_rule = MergeRule::kDrr;
  /// Ablation only: route every component through one coordinator machine
  /// instead of random proxies — the congested "trivial strategy" of
  /// Section 1.2. Correctness is unaffected; rounds degrade to O~(n/k).
  bool single_coordinator = false;
  /// Optional fault-injection & recovery plane (src/fault/), for the engine
  /// only. The engine checkpoints every C supersteps, so scheduled crashes
  /// roll the victim back and replay it instead of aborting, and a
  /// DurableStore attached to the plane receives every checkpoint as a
  /// resume frame; null is bit-identical. The extra passes built from this
  /// config run without it.
  FaultPlane* fault = nullptr;
};

struct PhaseTrace {
  std::uint32_t phase = 0;
  std::uint64_t components_before = 0;  // distinct labels entering the phase
  std::uint64_t components_after = 0;
  std::uint32_t elimination_iterations = 0;
  std::uint32_t merge_iterations = 0;   // DRR tree depth processed
  std::uint64_t rounds = 0;             // rounds charged during the phase
};

struct BoruvkaResult {
  std::vector<Label> labels;  // final component label per vertex
  std::uint64_t num_components = 0;
  bool converged = false;     // all components finished before max_phases

  /// Spanning-forest merge edges, per recording machine (kConnectivity).
  std::vector<std::vector<std::pair<Vertex, Vertex>>> forest_by_machine;
  /// Confirmed MWOEs, per recording machine (kMst).
  std::vector<std::vector<WeightedEdge>> mst_by_machine;

  /// Per-phase instrumentation, kept by the driver between supersteps. A
  /// run resumed from a durable frame reports only the phases its own
  /// process started, and max_merge_iterations only the phases it
  /// finished; every other field covers the whole computation.
  std::vector<PhaseTrace> phases;
  std::uint32_t max_merge_iterations = 0;   // max DRR merge depth over phases
  std::uint64_t sampler_retries = 0;  // sample() failures on nonzero or undecodable sketches
  RunStats stats;

  /// All forest/MST edges flattened (deduplicated, sorted).
  [[nodiscard]] std::vector<std::pair<Vertex, Vertex>> forest_edges() const;
  [[nodiscard]] std::vector<WeightedEdge> mst_edges() const;
};

/// The engine as a checkpointable program; run_boruvka is its driver.
class BoruvkaEngine final : public MachineProgram {
 public:
  /// Bumped on any change to the snapshot word layout (rule 10).
  static constexpr std::uint64_t kStateVersion = 1;

  BoruvkaEngine(Cluster& cluster, const DistributedGraph& dg, const BoruvkaConfig& config,
                BoruvkaMode mode);

  void on_superstep(MachineId self, std::span<const Message> inbox, Outbox& out) override;
  [[nodiscard]] bool done() const override;
  [[nodiscard]] bool checkpointable() const override { return true; }
  void snapshot(MachineId m, WordWriter& out) override;
  void restore(MachineId m, WordReader& in) override;
  [[nodiscard]] std::uint64_t state_version() const override { return kStateVersion; }

  /// The mode of the next superstep, read off machine 0's position (all
  /// machines move in lockstep): kInline for the control segments.
  [[nodiscard]] StepMode next_mode() const;
  /// Driver-side work after each step, keyed on the position that step
  /// left: the Section 2.2 randomness charge when a phase begins, and the
  /// phase trace when one ends.
  void after_step();
  /// The result once done() (the program is spent).
  [[nodiscard]] BoruvkaResult take_result();

 private:
  enum State : std::uint8_t {
    kSearching = 0,
    kAwaitWeight = 1,
    kAwaitLabel = 2,
    kDone = 3,
    kFinishedState = 4,
  };

  /// One superstep each. A *Decide segment is held by machines other than
  /// machine 0 after an OR-reduce broadcast: their next handler reads the
  /// outcome from the inbox before running the segment it selects. Machine
  /// 0 computes the outcome itself and moves on at once.
  enum Segment : std::uint8_t {
    kActiveReport,  // OR-reduce: does any machine hold an unfinished part?
    kActiveBcast,
    kActiveDecide,
    kSketch,        // SS1: part sketches (and proxy record handoffs)
    kProxy,         // proxy-side sums and state transitions
    kQuery,         // SS2: label/weight queries, directives
    kReply,         // SS3: replies
    kThreshold,     // SS4: threshold directives
    kElimReport,    // OR-reduce: is any component still searching?
    kElimBcast,
    kElimDecide,
    kDrr,           // DRR ranking
    kChildReg,      // child registration
    kMergeReport,   // OR-reduce: is any record still a child?
    kMergeBcast,
    kMergeDecide,
    kHandoff,       // merge iteration: record handoff to fresh proxies
    kMerge,         // merge leaves into parents
    kApply,         // relabel parts, child-done bookkeeping
    kCountProxy,    // counting protocol
    kCountRoot,
    kCountTotal,
    kFinished,
    kSegmentCount,
  };

  /// A machine's position and control words (rule 8: position is data).
  struct Control {
    std::uint32_t phase = 0;
    Segment seg = kActiveReport;
    std::uint32_t t = 0;    // elimination iteration; the DRR's proxy generation
    std::uint32_t rho = 0;  // merge iteration
    bool bit = false;       // OR-reduce input; machine 0 reads its own at the broadcast
    bool converged = false; // outcome of the last activity reduce
    std::uint64_t components = 0;  // counting protocol's total (machine 0)
  };

  /// A component part held by one machine. `finished` is set by the finish
  /// directive, which reaches every machine holding a part of the label.
  struct Part {
    std::vector<Vertex> verts;
    bool finished = false;
  };

  /// Proxy-side component record; travels between proxy generations in
  /// handoff messages. Lives in a LabelRegistry slot, so a recycled record
  /// must be reset() before use — the srcs mask is re-assigned in place
  /// (equal size), keeping slot reuse allocation-free.
  struct Record {
    State state = kSearching;
    Label parent = 0;              // == label for roots
    std::uint32_t children_left = 0;
    Weight thr = kNoWeightLimit;   // MST elimination threshold
    bool has_candidate = false;
    Vertex cand_in = 0, cand_out = 0;  // candidate edge, in ∈ C
    Weight cand_w = 0;
    Label target = 0;              // label on the other side of the edge
    std::vector<std::uint64_t> srcs;  // k-bit mask of machines holding parts

    void reset(std::size_t mask_words) {
      state = kSearching;
      parent = 0;
      children_left = 0;
      thr = kNoWeightLimit;
      has_candidate = false;
      cand_in = cand_out = 0;
      cand_w = 0;
      target = 0;
      srcs.assign(mask_words, 0);
    }
  };

  // -- position transitions (machine i, from its own state and inbox) ------
  void enter_after_active(MachineId i, bool any);
  void enter_iteration(MachineId i, std::uint32_t t);
  void enter_after_elim(MachineId i, bool any);
  void enter_after_merge(MachineId i, bool any);
  void report(MachineId i, Outbox& out, std::uint32_t tag, bool bit);
  [[nodiscard]] bool broadcast(std::span<const Message> inbox, Outbox& out,
                               std::uint32_t tag);

  // -- segment handlers ----------------------------------------------------
  [[nodiscard]] bool has_active_parts(MachineId i) const;
  void sketch_step(MachineId i, Outbox& out);
  void proxy_step(MachineId i, std::span<const Message> inbox, Outbox& out);
  void query_step(MachineId i, std::span<const Message> inbox, Outbox& out);
  void reply_step(MachineId i, std::span<const Message> inbox, Outbox& out);
  void apply_directives(MachineId i, std::span<const Message> inbox);
  void drr_step(MachineId i, Outbox& out);
  void child_reg_step(MachineId i, std::span<const Message> inbox);
  void merge_step(MachineId i, std::span<const Message> inbox, Outbox& out);
  void apply_step(MachineId i, std::span<const Message> inbox);
  void count_proxy_step(MachineId i, Outbox& out);
  void count_root_step(MachineId i, std::span<const Message> inbox, Outbox& out);
  void count_total_step(MachineId i, std::span<const Message> inbox, Outbox& out);

  // -- helpers -------------------------------------------------------------
  void charge_phase_randomness();
  [[nodiscard]] ProxyMap elimination_proxies(std::uint32_t phase, std::uint32_t t) const;
  [[nodiscard]] ProxyMap merge_proxies(std::uint32_t phase, std::uint32_t rho) const;
  /// Machine i's sketch builder, rebound to the shared seed of its own
  /// (phase, t), so a replayed or resumed machine sketches with its own
  /// iteration's seed. Allocation-free after the first call.
  const GraphSketchBuilder& builder_for(MachineId i);
  /// A record's words: the handoff payload and the snapshot entry.
  static void write_record(WordWriter& w, Label label, const Record& rec);
  void send_handoffs(LabelRegistry<Record>& from, Outbox& out, const ProxyMap& to,
                     WordWriter& w);
  void apply_handoff(WordReader& reader, LabelRegistry<Record>& into);
  void relabel_part(MachineId machine, Label from, Label to);
  [[nodiscard]] std::uint64_t count_distinct_labels();  // instrumentation only

  [[nodiscard]] std::size_t mask_words() const { return (cluster_->k() + 63) / 64; }
  static void mask_set(std::vector<std::uint64_t>& mask, MachineId m) {
    mask[m / 64] |= 1ULL << (m % 64);
  }
  static void mask_or(std::vector<std::uint64_t>& mask,
                      const std::vector<std::uint64_t>& other) {
    for (std::size_t i = 0; i < mask.size(); ++i) mask[i] |= other[i];
  }
  template <typename Fn>
  void mask_for_each(const std::vector<std::uint64_t>& mask, Fn fn) const {
    for (std::size_t w = 0; w < mask.size(); ++w) {
      std::uint64_t bits = mask[w];
      while (bits != 0) {
        const int b = __builtin_ctzll(bits);
        fn(static_cast<MachineId>(w * 64 + static_cast<std::size_t>(b)));
        bits &= bits - 1;
      }
    }
  }

  Cluster* cluster_;
  const DistributedGraph* dg_;
  BoruvkaConfig config_;
  BoruvkaMode mode_;
  SharedRandomness shared_;
  std::size_t n_;
  std::uint64_t label_bits_;  // wire bits of one label / vertex id
  std::uint32_t max_phases_;  // config_.max_phases or the Lemma 7 bound

  // Machine state. All containers below are indexed by machine and each
  // superstep handler touches only its own slot — the property that makes
  // the per-machine handlers race-free without locks. Registries are flat
  // and capacity-retaining (see the registry contract above). snapshot()
  // serializes ctl_, machine_parts_, resend_, labels_ of hosted vertices,
  // proxy_records_, the sampler retry counter and the recorded output
  // edges; everything else is rebuilt within one step.
  std::vector<Control> ctl_;
  std::vector<LabelRegistry<Part>> machine_parts_;
  // Labels to re-sketch next iteration; the payload is the current MST
  // elimination threshold (kNoWeightLimit in connectivity mode / on entry).
  std::vector<LabelRegistry<Weight>> resend_;
  std::vector<Label> labels_;    // labels_[v], authoritative at home(v)
  std::vector<std::uint64_t> sampler_retries_by_machine_;

  // Proxy-side records for the current proxy generation.
  std::vector<LabelRegistry<Record>> proxy_records_;
  // Per-superstep proxy accumulators: label -> pooled sketch index (high
  // bit set once a sketch for the label failed to decode); lives only
  // within the proxy handler of one elimination iteration.
  std::vector<LabelRegistry<std::uint32_t>> sum_slots_;
  // Recycled L0Sampler storage: SS1 part sketches and proxy-side sums both
  // draw zeroed accumulators from here instead of constructing sketches.
  std::vector<SketchPool> sketch_pool_;
  // One sketch builder per machine (power table refilled in place on
  // rebind), bound from the machine's own position: a live step never
  // rebinds a builder another machine reads, and a machine the fault plane
  // replays through an older iteration, or one restored inside the first
  // step of a resumed process, sketches with its own iteration's seed.
  std::vector<std::optional<GraphSketchBuilder>> builders_;

  // Per-machine scratch (machine-indexed like the state above, so handlers
  // stay race-free); cleared between uses with capacity retained, so the
  // steady state allocates nothing.
  std::vector<WordWriter> writer_;
  std::vector<std::vector<std::uint64_t>> mask_scratch_;   // child-src masks
  std::vector<std::vector<Label>> label_scratch_;  // finished/merged/count lists
  std::vector<char> seen_scratch_;  // per-vertex marks for label counting (driver)

  std::optional<PhaseTrace> open_trace_;  // the phase this process saw begin
  std::uint64_t trace_rounds_before_ = 0;
  BoruvkaResult result_;
};

/// Run the engine on `dg` until done(): the one driver behind
/// connected_components and minimum_spanning_forest. config.fault carries
/// the recovery plane (crash schedule, durable store, armed resume frame).
[[nodiscard]] BoruvkaResult run_boruvka(Cluster& cluster, const DistributedGraph& dg,
                                        const BoruvkaConfig& config, BoruvkaMode mode);

}  // namespace kmm
