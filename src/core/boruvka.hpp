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
// Execution: every per-machine protocol segment (sketch construction,
// proxy-side merges and state transitions, query answering, relabeling) is
// a superstep handler run on the src/runtime/ engine, so with
// config.threads > 1 the k machines' local computation proceeds in
// parallel. Handlers only touch machine-indexed state (machine_parts_[i],
// proxy_records_[i], ...); the two cross-machine cells — the finished-label
// flags, set concurrently by several part machines, and nothing else — are
// atomics. The cluster ledger is identical for every thread count (see
// runtime/runtime.hpp for why, and tests/test_runtime.cpp for proof).
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

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
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
  /// only. It registers per-machine state hooks covering parts, labels,
  /// pending resends, proxy records and recorded output edges, so scheduled
  /// crashes roll the victim back instead of aborting; null is
  /// bit-identical. The extra passes built from this config run without it.
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

  std::vector<PhaseTrace> phases;
  std::uint32_t max_merge_iterations = 0;   // max DRR merge depth over phases
  std::uint64_t sampler_retries = 0;  // sample() failures on nonzero or undecodable sketches
  RunStats stats;

  /// All forest/MST edges flattened (deduplicated, sorted).
  [[nodiscard]] std::vector<std::pair<Vertex, Vertex>> forest_edges() const;
  [[nodiscard]] std::vector<WeightedEdge> mst_edges() const;
};

class BoruvkaEngine {
 public:
  BoruvkaEngine(Cluster& cluster, const DistributedGraph& dg, BoruvkaConfig config,
                BoruvkaMode mode);

  BoruvkaResult run();

 private:
  enum State : std::uint8_t {
    kSearching = 0,
    kAwaitWeight = 1,
    kAwaitLabel = 2,
    kDone = 3,
    kFinishedState = 4,
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

  // -- phase steps ---------------------------------------------------------
  void charge_phase_randomness();
  bool any_active_parts();
  std::uint32_t run_elimination_loop(std::uint32_t phase);
  void run_drr_step(std::uint32_t phase, std::uint32_t proxy_gen);
  std::uint32_t run_merge_loop(std::uint32_t phase, std::uint32_t last_gen);
  void run_component_count();

  // -- helpers -------------------------------------------------------------
  [[nodiscard]] ProxyMap elimination_proxies(std::uint32_t phase, std::uint32_t t) const;
  [[nodiscard]] ProxyMap merge_proxies(std::uint32_t phase, std::uint32_t rho) const;
  /// Bind (or rebind) the long-lived sketch builder to this iteration's
  /// shared seed; allocation-free after the first call.
  const GraphSketchBuilder& bind_builder(std::uint64_t sketch_seed);
  void send_handoffs(LabelRegistry<Record>& from, Outbox& out, const ProxyMap& to,
                     WordWriter& w);
  void apply_handoff(WordReader& reader, LabelRegistry<Record>& into);
  void relabel_part(MachineId machine, Label from, Label to);
  [[nodiscard]] std::uint64_t count_distinct_labels();  // instrumentation only

  // -- fault-plane state hooks (porting recipe rule 8b) --------------------
  // Serialize / rebuild machine m's complete cross-step state. Deliberately
  // excluded: finished_ (monotone one-way flags = replicated stable
  // storage) and all within-step scratch (sum_slots_, sketch_pool_,
  // writer_, *_scratch_ except the OR-reduce bits), which is re-cleared
  // before every use.
  void snapshot_machine(MachineId m, WordWriter& w);
  void restore_machine(MachineId m, WordReader& r);

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
  Runtime runtime_;           // parallel superstep executor over cluster_

  // Home-machine state. All containers below are indexed by machine and
  // each superstep handler touches only its own slot — the property that
  // makes the per-machine handlers race-free without locks. Registries are
  // flat and capacity-retaining (see the registry contract above).
  std::vector<LabelRegistry<std::vector<Vertex>>> machine_parts_;
  // Labels to re-sketch next iteration; the payload is the current MST
  // elimination threshold (kNoWeightLimit in connectivity mode / on entry).
  std::vector<LabelRegistry<Weight>> resend_;
  std::vector<Label> labels_;    // labels_[v], authoritative at home(v)
  // finished_[label]: set (0 -> 1 only) concurrently by every part machine
  // receiving the finish directive; atomic because several machines may
  // hold parts of the same component. Read between supersteps.
  std::unique_ptr<std::atomic<std::uint8_t>[]> finished_;
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
  // One builder for the whole run, rebound per iteration (power table
  // refilled in place); read-only inside handlers.
  std::optional<GraphSketchBuilder> builder_;

  // Per-machine scratch (machine-indexed like the state above, so handlers
  // stay race-free); cleared between uses with capacity retained, so the
  // steady state allocates nothing.
  std::vector<WordWriter> writer_;
  std::vector<std::vector<std::uint64_t>> mask_scratch_;   // child-src masks
  std::vector<std::vector<Label>> label_scratch_;  // finished/merged/count lists
  std::vector<char> bit_scratch_;   // per-machine flags for the OR-reduces
  std::vector<char> seen_scratch_;  // per-vertex marks for label counting

  BoruvkaResult result_;
};

}  // namespace kmm
