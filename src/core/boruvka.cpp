#include "core/boruvka.hpp"

#include <algorithm>
#include <cmath>

#include "core/drr.hpp"
#include "util/assert.hpp"
#include "util/logging.hpp"

namespace kmm {

namespace {

// Message tags of the engine's wire protocol.
constexpr std::uint32_t kTagSketch = 1;
constexpr std::uint32_t kTagLabelQuery = 2;
constexpr std::uint32_t kTagLabelReply = 3;
constexpr std::uint32_t kTagWeightQuery = 4;
constexpr std::uint32_t kTagWeightReply = 5;
constexpr std::uint32_t kTagDirective = 6;  // [label, kind, thr] kind: 0=continue 1=finished
constexpr std::uint32_t kTagHandoff = 7;
constexpr std::uint32_t kTagChildReg = 8;   // [child, parent]
constexpr std::uint32_t kTagRelabel = 9;    // [from, to]
constexpr std::uint32_t kTagChildDone = 10; // [parent, srcs...]
constexpr std::uint32_t kTagCtrlElim = 11;
constexpr std::uint32_t kTagCtrlMerge = 12;
constexpr std::uint32_t kTagCtrlActive = 13;
constexpr std::uint32_t kTagCountProxy = 14;
constexpr std::uint32_t kTagCountRoot = 15;
constexpr std::uint32_t kTagCountBcast = 16;

constexpr std::uint64_t kDirectiveContinue = 0;
constexpr std::uint64_t kDirectiveFinished = 1;

// Set on a proxy's per-label sum slot (a SketchPool index) once one of the
// label's incoming sketches failed to decode; the sum is then unusable.
constexpr std::uint32_t kMalformedSum = 1u << 31;

// restore()'s diagnostics for fields that occur more than once.
constexpr char kBadLabel[] = "boruvka restore: a `label` word is not below n";
constexpr char kBadVertex[] = "boruvka restore: a `vertex` word is not below n";
constexpr char kBadCount[] = "boruvka restore: a `count` word exceeds the remaining words";

/// Machine 0's OR-reduce outcome, as broadcast into machine i's inbox.
bool broadcast_bit(std::span<const Message> inbox, std::uint32_t tag) {
  for (const Message& msg : inbox) {
    if (msg.tag != tag) continue;
    const std::uint64_t word = msg.payload()[0];
    KMM_CHECK_MSG(word <= 1, "boruvka: OR-reduce broadcast word is not 0 or 1");
    return word != 0;
  }
  KMM_CHECK_MSG(false, "boruvka: OR-reduce broadcast missing from the inbox");
  return false;
}

}  // namespace

std::vector<std::pair<Vertex, Vertex>> BoruvkaResult::forest_edges() const {
  std::vector<std::pair<Vertex, Vertex>> all;
  for (const auto& per_machine : forest_by_machine) {
    all.insert(all.end(), per_machine.begin(), per_machine.end());
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

std::vector<WeightedEdge> BoruvkaResult::mst_edges() const {
  std::vector<WeightedEdge> all;
  for (const auto& per_machine : mst_by_machine) {
    all.insert(all.end(), per_machine.begin(), per_machine.end());
  }
  std::sort(all.begin(), all.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    return std::tuple{a.u, a.v, a.w} < std::tuple{b.u, b.v, b.w};
  });
  all.erase(std::unique(all.begin(), all.end()), all.end());
  return all;
}

BoruvkaEngine::BoruvkaEngine(Cluster& cluster, const DistributedGraph& dg,
                             const BoruvkaConfig& config, BoruvkaMode mode)
    : cluster_(&cluster),
      dg_(&dg),
      config_(config),
      mode_(mode),
      shared_(config.seed),
      n_(dg.num_vertices()),
      label_bits_(bits_for(std::max<std::uint64_t>(n_, 2))),
      max_phases_(config.max_phases > 0 ? static_cast<std::uint32_t>(config.max_phases)
                                        : static_cast<std::uint32_t>(12 * label_bits_) + 1) {
  KMM_CHECK_MSG(n_ >= 2, "the engine needs at least two vertices");
  const MachineId k = cluster_->k();
  ctl_.resize(k);
  machine_parts_.resize(k);
  resend_.resize(k);
  proxy_records_.resize(k);
  sum_slots_.resize(k);
  sketch_pool_.resize(k);
  builders_.resize(k);
  for (MachineId i = 0; i < k; ++i) {
    machine_parts_[i].reset_universe(n_);
    resend_[i].reset_universe(n_);
    proxy_records_[i].reset_universe(n_);
    sum_slots_[i].reset_universe(n_);
  }
  writer_.resize(k);
  mask_scratch_.assign(k, std::vector<std::uint64_t>(mask_words()));
  label_scratch_.resize(k);
  seen_scratch_.assign(n_, 0);
  sampler_retries_by_machine_.assign(k, 0);
  labels_.resize(n_);
  for (Vertex v = 0; v < n_; ++v) {
    labels_[v] = v;
    bool created = false;
    Part& part = machine_parts_[dg.home(v)].get_or_create(v, created);
    part.verts.assign(1, v);
    part.finished = false;
  }
  result_.forest_by_machine.resize(k);
  result_.mst_by_machine.resize(k);
}

const GraphSketchBuilder& BoruvkaEngine::builder_for(MachineId i) {
  const std::uint64_t seed = shared_.seed(ctl_[i].phase, ctl_[i].t, seed_purpose::kSketch);
  std::optional<GraphSketchBuilder>& builder = builders_[i];
  if (!builder.has_value()) {
    builder.emplace(n_, seed, config_.sketch_copies);
  } else if (builder->seed() != seed) {
    builder->rebind(seed);
  }
  return *builder;
}

ProxyMap BoruvkaEngine::elimination_proxies(std::uint32_t phase, std::uint32_t t) const {
  if (config_.single_coordinator) return ProxyMap::fixed(0, cluster_->k());
  return ProxyMap(shared_.seed(phase, t, seed_purpose::kProxy), cluster_->k());
}

ProxyMap BoruvkaEngine::merge_proxies(std::uint32_t phase, std::uint32_t rho) const {
  if (config_.single_coordinator) return ProxyMap::fixed(0, cluster_->k());
  // Offset keeps merge-iteration hashes disjoint from elimination ones.
  return ProxyMap(shared_.seed(phase, 100000 + rho, seed_purpose::kProxy), cluster_->k());
}

void BoruvkaEngine::charge_phase_randomness() {
  if (!config_.charge_randomness) return;
  // Section 2.2: d = Θ~(n/k) bits make the per-iteration hash functions
  // d-wise independent; plus Θ(log^2 n) bits for the sketch seeds ([10]).
  const std::uint64_t lg = label_bits_;
  const std::uint64_t d_bits = (n_ / cluster_->k() + 1) * lg + 4 * lg * lg;
  shared_.charge_distribution(*cluster_, d_bits);
}

// ------------------------------------------------------------ the program

bool BoruvkaEngine::done() const { return ctl_[0].seg == kFinished; }

StepMode BoruvkaEngine::next_mode() const {
  // One-word control steps and pure directive/counter application: the
  // pool dispatch would cost more than the handler work.
  switch (ctl_[0].seg) {
    case kActiveReport:
    case kActiveBcast:
    case kThreshold:
    case kElimReport:
    case kElimBcast:
    case kChildReg:
    case kMergeReport:
    case kMergeBcast:
    case kCountTotal:
      return StepMode::kInline;
    default:
      return StepMode::kParallel;
  }
}

void BoruvkaEngine::on_superstep(MachineId i, std::span<const Message> inbox, Outbox& out) {
  Control& c = ctl_[i];
  // Machines other than 0 learn an OR-reduce's outcome from machine 0's
  // broadcast, delivered into this inbox, and then run the segment it
  // selects in this same step.
  if (c.seg == kActiveDecide) {
    enter_after_active(i, broadcast_bit(inbox, kTagCtrlActive));
  } else if (c.seg == kElimDecide) {
    enter_after_elim(i, broadcast_bit(inbox, kTagCtrlElim));
  } else if (c.seg == kMergeDecide) {
    enter_after_merge(i, broadcast_bit(inbox, kTagCtrlMerge));
  }
  switch (c.seg) {
    case kActiveReport:
      report(i, out, kTagCtrlActive, has_active_parts(i));
      c.seg = kActiveBcast;
      break;
    case kActiveBcast:
      if (i == 0) {
        enter_after_active(i, broadcast(inbox, out, kTagCtrlActive));
      } else {
        c.seg = kActiveDecide;
      }
      break;
    case kSketch:
      sketch_step(i, out);
      c.seg = kProxy;
      break;
    case kProxy:
      proxy_step(i, inbox, out);
      c.seg = kQuery;
      break;
    case kQuery:
      query_step(i, inbox, out);
      c.seg = kReply;
      break;
    case kReply:
      reply_step(i, inbox, out);
      c.seg = kThreshold;
      break;
    case kThreshold:
      // SS4: threshold directives issued after weight replies; sends
      // nothing, so the superstep is free.
      apply_directives(i, inbox);
      c.seg = kElimReport;
      break;
    case kElimReport:
      report(i, out, kTagCtrlElim,
             proxy_records_[i].any_of([](Label, const Record& rec) {
               return rec.state == kSearching || rec.state == kAwaitWeight ||
                      rec.state == kAwaitLabel;
             }));
      c.seg = kElimBcast;
      break;
    case kElimBcast:
      if (i == 0) {
        enter_after_elim(i, broadcast(inbox, out, kTagCtrlElim));
      } else {
        c.seg = kElimDecide;
      }
      break;
    case kDrr:
      drr_step(i, out);
      c.seg = kChildReg;
      break;
    case kChildReg:
      child_reg_step(i, inbox);
      c.rho = 0;
      c.seg = kMergeReport;
      break;
    case kMergeReport:
      report(i, out, kTagCtrlMerge,
             proxy_records_[i].any_of(
                 [](Label label, const Record& rec) { return rec.parent != label; }));
      c.seg = kMergeBcast;
      break;
    case kMergeBcast:
      if (i == 0) {
        enter_after_merge(i, broadcast(inbox, out, kTagCtrlMerge));
      } else {
        c.seg = kMergeDecide;
      }
      break;
    case kHandoff:
      // Fresh proxies each merge iteration (Lemma 5) + record handoff.
      send_handoffs(proxy_records_[i], out, merge_proxies(c.phase, c.rho), writer_[i]);
      proxy_records_[i].clear();
      c.seg = kMerge;
      break;
    case kMerge:
      merge_step(i, inbox, out);
      c.seg = kApply;
      break;
    case kApply:
      apply_step(i, inbox);
      c.seg = kMergeReport;
      break;
    case kCountProxy:
      count_proxy_step(i, out);
      c.seg = kCountRoot;
      break;
    case kCountRoot:
      count_root_step(i, inbox, out);
      c.seg = kCountTotal;
      break;
    case kCountTotal:
      count_total_step(i, inbox, out);
      c.seg = kFinished;
      break;
    default:
      // kFinished: nothing left to do. The *Decide segments were resolved
      // above.
      break;
  }
}

// ------------------------------------------------------ OR-reduces

// The three OR-reduces are two kInline control supersteps each: machines
// with a set bit report to machine 0 (its own report is a free local
// message), which broadcasts the OR to every other machine (broadcast()
// is machine 0's half).

void BoruvkaEngine::report(MachineId i, Outbox& out, std::uint32_t tag, bool bit) {
  ctl_[i].bit = bit;
  if (bit) out.send(0, tag, {}, 1);
}

bool BoruvkaEngine::broadcast(std::span<const Message> inbox, Outbox& out,
                              std::uint32_t tag) {
  const bool any = !inbox.empty() || ctl_[0].bit;
  for (MachineId j = 1; j < out.machines(); ++j) out.send(j, tag, {any ? 1ULL : 0ULL}, 1);
  return any;
}

void BoruvkaEngine::enter_after_active(MachineId i, bool any) {
  Control& c = ctl_[i];
  if (any && c.phase < max_phases_) {
    // A new phase: every unfinished part is sketched in iteration 0.
    resend_[i].clear();
    proxy_records_[i].clear();
    machine_parts_[i].for_each([&](Label label, const Part& part) {
      if (!part.verts.empty() && !part.finished) {
        bool created = false;
        resend_[i].get_or_create(label, created) = kNoWeightLimit;
      }
    });
    enter_iteration(i, 0);
    return;
  }
  // Nothing is left, or the Lemma 7 phase budget is exhausted and this
  // reduce records whether anything was (correct w.h.p. regardless).
  c.converged = !any;
  c.seg = config_.count_components ? kCountProxy : kFinished;
}

void BoruvkaEngine::enter_iteration(MachineId i, std::uint32_t t) {
  KMM_CHECK_MSG(static_cast<int>(t) < config_.max_elimination_iterations,
                "outgoing-edge selection failed to converge");
  ctl_[i].t = t;
  ctl_[i].seg = kSketch;
}

void BoruvkaEngine::enter_after_elim(MachineId i, bool any) {
  if (any) {
    enter_iteration(i, ctl_[i].t + 1);
  } else {
    ctl_[i].seg = kDrr;
  }
}

void BoruvkaEngine::enter_after_merge(MachineId i, bool any) {
  Control& c = ctl_[i];
  if (!any) {
    ++c.phase;
    c.seg = kActiveReport;
    return;
  }
  ++c.rho;
  KMM_CHECK_MSG(static_cast<int>(c.rho) < config_.max_merge_iterations,
                "merge loop failed to converge");
  c.seg = kHandoff;
}

// ------------------------------------------------ segment handlers

bool BoruvkaEngine::has_active_parts(MachineId i) const {
  return machine_parts_[i].any_of([](Label, const Part& part) {
    return !part.verts.empty() && !part.finished;
  });
}

void BoruvkaEngine::sketch_step(MachineId i, Outbox& out) {
  // SS1: sketch the active parts (restricted by the local threshold in MST
  // mode) and, from the second iteration on, hand the proxy records off to
  // the fresh proxy generation. Sketch construction is the engine's
  // dominant local computation — the handler where threads > 1 pays. One
  // pooled sampler per machine absorbs every part sketch of the iteration.
  const Control& c = ctl_[i];
  const ProxyMap prox = elimination_proxies(c.phase, c.t);
  const GraphSketchBuilder& builder = builder_for(i);
  resend_[i].for_each_sorted([&](Label label, Weight thr) {
    const Part* part = machine_parts_[i].find(label);
    KMM_CHECK(part != nullptr);
    auto& pool = sketch_pool_[i];
    pool.release_all();
    L0Sampler& sketch = pool.acquire(builder.universe(), builder.params(), builder.seed());
    builder.accumulate_part(*dg_, part->verts, thr, sketch);
    auto& w = writer_[i];
    w.clear();
    w.u64(label);
    sketch.serialize(w);
    out.send(prox.proxy_of(label), kTagSketch, w.words(), label_bits_ + sketch.wire_bits());
  });
  resend_[i].clear();
  if (c.t >= 1) {
    send_handoffs(proxy_records_[i], out, prox, writer_[i]);
    proxy_records_[i].clear();
  }
}

void BoruvkaEngine::proxy_step(MachineId i, std::span<const Message> inbox, Outbox& out) {
  // Apply handoffs first so records exist before this iteration's sketches
  // are merged, then sum per-label sketches and run the state transitions
  // on the combined result. Incoming sketches are merged wire-level:
  // compact serialized prefixes add straight off the payload into a pooled
  // accumulator (add_serialized) — no per-message deserialize. A payload
  // the decoder rejects (a tampered length header) marks the label's sum
  // unusable; its transition below takes the recovery-failed branch and
  // retries with fresh seeds.
  const GraphSketchBuilder& builder = builder_for(i);
  for (const auto& msg : inbox) {
    if (msg.tag == kTagHandoff) {
      WordReader r(msg.payload());
      apply_handoff(r, proxy_records_[i]);
    }
  }
  auto& sums = sum_slots_[i];
  auto& pool = sketch_pool_[i];
  sums.clear();
  pool.release_all();
  for (const auto& msg : inbox) {
    if (msg.tag != kTagSketch) continue;
    WordReader r(msg.payload());
    const Label label = r.u64();
    bool created = false;
    Record& rec = proxy_records_[i].get_or_create(label, created);
    if (created) {
      rec.reset(mask_words());
      rec.parent = label;
    }
    mask_set(rec.srcs, msg.src);
    bool sum_created = false;
    std::uint32_t& sum_idx = sums.get_or_create(label, sum_created);
    if (sum_created) {
      sum_idx = pool.acquire_index(builder.universe(), builder.params(), builder.seed());
    }
    if ((sum_idx & kMalformedSum) == 0 && !pool.at(sum_idx).add_serialized(r)) {
      sum_idx |= kMalformedSum;
    }
  }

  // State transitions for components whose combined sketch arrived, in
  // ascending label order (the wire order the ledger pins).
  sums.for_each_sorted([&](Label label, std::uint32_t sum_idx) {
    const L0Sampler* sum = (sum_idx & kMalformedSum) == 0 ? &pool.at(sum_idx) : nullptr;
    Record& rec = proxy_records_[i].at(label);
    KMM_CHECK(rec.state == kSearching);
    if (sum != nullptr && sum->is_zero()) {
      if (rec.has_candidate) {
        // No outgoing edge lighter than the candidate: MWOE confirmed.
        rec.state = kAwaitLabel;
        out.send(dg_->home(rec.cand_out), kTagLabelQuery, {label, rec.cand_out},
                 2 * label_bits_);
      } else {
        rec.state = kFinishedState;
        mask_for_each(rec.srcs, [&](MachineId m) {
          out.send(m, kTagDirective, {label, kDirectiveFinished, 0}, label_bits_ + 2);
        });
      }
      return;
    }
    const auto sampled = sum != nullptr ? sum->sample(builder.powers()) : std::nullopt;
    if (!sampled) {
      // Nonzero vector (or malformed sketch) but recovery failed: retry
      // with fresh seeds.
      ++sampler_retries_by_machine_[i];
      mask_for_each(rec.srcs, [&](MachineId m) {
        out.send(m, kTagDirective, {label, kDirectiveContinue, rec.thr}, label_bits_ + 66);
      });
      return;
    }
    const auto [x, y] = builder.decode(sampled->index);
    rec.cand_in = sampled->value > 0 ? x : y;
    rec.cand_out = sampled->value > 0 ? y : x;
    rec.has_candidate = true;
    if (mode_ == BoruvkaMode::kConnectivity) {
      rec.state = kAwaitLabel;
      out.send(dg_->home(rec.cand_out), kTagLabelQuery, {label, rec.cand_out},
               2 * label_bits_);
    } else {
      rec.state = kAwaitWeight;
      out.send(dg_->home(rec.cand_in), kTagWeightQuery, {label, rec.cand_in, rec.cand_out},
               3 * label_bits_);
    }
  });
}

void BoruvkaEngine::query_step(MachineId i, std::span<const Message> inbox, Outbox& out) {
  // SS2: home machines answer queries; part machines apply directives
  // issued by the sampling step.
  for (const auto& msg : inbox) {
    switch (msg.tag) {
      case kTagLabelQuery: {
        const Label label = msg.payload()[0];
        const auto v = static_cast<Vertex>(msg.payload()[1]);
        KMM_CHECK_MSG(dg_->home(v) == i, "label query reached a non-home machine");
        out.send(msg.src, kTagLabelReply, {label, labels_[v]}, 2 * label_bits_);
        break;
      }
      case kTagWeightQuery: {
        const Label label = msg.payload()[0];
        const auto in = static_cast<Vertex>(msg.payload()[1]);
        const auto out_v = static_cast<Vertex>(msg.payload()[2]);
        KMM_CHECK_MSG(dg_->home(in) == i, "weight query reached a non-home machine");
        Weight w = 0;
        bool found = false;
        for (const auto& he : dg_->neighbors(in)) {
          if (he.to == out_v) {
            w = he.weight;
            found = true;
            break;
          }
        }
        KMM_CHECK_MSG(found, "sampled edge does not exist at the home machine");
        out.send(msg.src, kTagWeightReply, {label, w}, label_bits_ + 64);
        break;
      }
      default:
        break;
    }
  }
  apply_directives(i, inbox);
}

void BoruvkaEngine::apply_directives(MachineId i, std::span<const Message> inbox) {
  for (const auto& msg : inbox) {
    if (msg.tag != kTagDirective) continue;
    const Label label = msg.payload()[0];
    if (msg.payload()[1] == kDirectiveFinished) {
      // The directive goes to every machine holding a part of the label
      // (the record's srcs mask), and only those machines read the flag.
      if (Part* part = machine_parts_[i].find(label)) part->finished = true;
    } else {
      bool created = false;
      resend_[i].get_or_create(label, created) = msg.payload()[2];
    }
  }
}

void BoruvkaEngine::reply_step(MachineId i, std::span<const Message> inbox, Outbox& out) {
  // SS3: replies complete the pending transitions.
  for (const auto& msg : inbox) {
    if (msg.tag == kTagLabelReply) {
      const Label label = msg.payload()[0];
      const Label target = msg.payload()[1];
      Record& rec = proxy_records_[i].at(label);
      KMM_CHECK(rec.state == kAwaitLabel);
      KMM_CHECK_MSG(target != label, "sampled edge is intra-component");
      rec.target = target;
      rec.state = kDone;
    } else if (msg.tag == kTagWeightReply) {
      const Label label = msg.payload()[0];
      const Weight w = msg.payload()[1];
      Record& rec = proxy_records_[i].at(label);
      KMM_CHECK(rec.state == kAwaitWeight);
      KMM_CHECK_MSG(w >= 1, "edge weights must be positive");
      rec.cand_w = w;
      rec.thr = w - 1;  // next sketches keep strictly lighter edges only
      rec.state = kSearching;
      mask_for_each(rec.srcs, [&](MachineId m) {
        out.send(m, kTagDirective, {label, kDirectiveContinue, rec.thr}, label_bits_ + 66);
      });
    }
  }
}

void BoruvkaEngine::drr_step(MachineId i, Outbox& out) {
  const Control& c = ctl_[i];
  const ProxyMap prox = elimination_proxies(c.phase, c.t);
  const std::uint64_t rank_seed = shared_.seed(c.phase, 0, seed_purpose::kRank);
  auto& finished_records = label_scratch_[i];
  finished_records.clear();
  proxy_records_[i].for_each_sorted([&](Label label, Record& rec) {
    if (rec.state == kFinishedState) {
      finished_records.push_back(label);
      return;
    }
    KMM_CHECK(rec.state == kDone);
    if (mode_ == BoruvkaMode::kMst) {
      // Every confirmed MWOE belongs to the MST (cut property); the proxy
      // machine is the "at least one machine" of Theorem 2(a).
      const Vertex u = std::min(rec.cand_in, rec.cand_out);
      const Vertex v = std::max(rec.cand_in, rec.cand_out);
      result_.mst_by_machine[i].push_back(WeightedEdge{u, v, rec.cand_w});
    }
    bool attach;
    if (config_.merge_rule == MergeRule::kDrr) {
      attach = drr_attaches(rank_seed, label, rec.target);
    } else {
      // Footnote 9: merge only 0-coin -> 1-coin; resulting trees have
      // depth 1 (a 0-component never receives children).
      attach = split(rank_seed, label) % 2 == 0 && split(rank_seed, rec.target) % 2 == 1;
    }
    if (attach) {
      rec.parent = rec.target;
      out.send(prox.proxy_of(rec.target), kTagChildReg, {label, rec.target}, 2 * label_bits_);
    } else {
      rec.parent = label;  // root of its merge tree
    }
  });
  for (const Label label : finished_records) proxy_records_[i].erase(label);
}

void BoruvkaEngine::child_reg_step(MachineId i, std::span<const Message> inbox) {
  for (const auto& msg : inbox) {
    if (msg.tag != kTagChildReg) continue;
    const Label parent = msg.payload()[1];
    Record* rec = proxy_records_[i].find(parent);
    KMM_CHECK_MSG(rec != nullptr, "child registered with an unknown parent component");
    ++rec->children_left;
  }
}

void BoruvkaEngine::merge_step(MachineId i, std::span<const Message> inbox, Outbox& out) {
  // Apply handoffs, then merge leaves (no remaining children) into their
  // parents; both touch only this machine's record map.
  const ProxyMap prox = merge_proxies(ctl_[i].phase, ctl_[i].rho);
  for (const auto& msg : inbox) {
    if (msg.tag == kTagHandoff) {
      WordReader r(msg.payload());
      apply_handoff(r, proxy_records_[i]);
    }
  }
  auto& merged = label_scratch_[i];
  merged.clear();
  proxy_records_[i].for_each_sorted([&](Label label, const Record& rec) {
    if (rec.parent == label || rec.children_left != 0) return;
    if (mode_ == BoruvkaMode::kConnectivity) {
      const Vertex u = std::min(rec.cand_in, rec.cand_out);
      const Vertex v = std::max(rec.cand_in, rec.cand_out);
      result_.forest_by_machine[i].emplace_back(u, v);
    }
    mask_for_each(rec.srcs, [&](MachineId m) {
      out.send(m, kTagRelabel, {label, rec.parent}, 2 * label_bits_);
    });
    auto& w = writer_[i];
    w.clear();
    w.u64(rec.parent);
    for (const auto word : rec.srcs) w.u64(word);
    out.send(prox.proxy_of(rec.parent), kTagChildDone, w.words(),
             label_bits_ + cluster_->k() + 16);
    merged.push_back(label);
  });
  for (const Label label : merged) proxy_records_[i].erase(label);
}

void BoruvkaEngine::apply_step(MachineId i, std::span<const Message> inbox) {
  for (const auto& msg : inbox) {
    if (msg.tag == kTagRelabel) {
      relabel_part(i, msg.payload()[0], msg.payload()[1]);
    } else if (msg.tag == kTagChildDone) {
      const Label parent = msg.payload()[0];
      Record* rec = proxy_records_[i].find(parent);
      KMM_CHECK_MSG(rec != nullptr, "child-done for unknown parent");
      KMM_CHECK(rec->children_left > 0);
      --rec->children_left;
      auto& child_srcs = mask_scratch_[i];
      KMM_DCHECK(msg.payload_words() >= 1 + child_srcs.size());
      for (std::size_t wi = 0; wi < child_srcs.size(); ++wi) {
        child_srcs[wi] = msg.payload()[1 + wi];
      }
      mask_or(rec->srcs, child_srcs);
    }
  }
}

void BoruvkaEngine::count_proxy_step(MachineId i, Outbox& out) {
  const ProxyMap prox(shared_.seed(0xC017, 0, seed_purpose::kProxy), cluster_->k());
  machine_parts_[i].for_each_sorted([&](Label label, const Part& part) {
    if (!part.verts.empty()) out.send(prox.proxy_of(label), kTagCountProxy, {label}, label_bits_);
  });
}

void BoruvkaEngine::count_root_step(MachineId i, std::span<const Message> inbox, Outbox& out) {
  // sort + unique reproduces the ordered-set iteration the wire expects.
  auto& distinct = label_scratch_[i];
  distinct.clear();
  for (const auto& msg : inbox) {
    if (msg.tag == kTagCountProxy) distinct.push_back(msg.payload()[0]);
  }
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()), distinct.end());
  for (const Label label : distinct) out.send(0, kTagCountRoot, {label}, label_bits_);
}

void BoruvkaEngine::count_total_step(MachineId i, std::span<const Message> inbox,
                                     Outbox& out) {
  // Only machine 0 acts here; there is no parallelism to harvest.
  if (i != 0) return;
  auto& all = label_scratch_[0];
  all.clear();
  for (const auto& msg : inbox) {
    if (msg.tag == kTagCountRoot) all.push_back(msg.payload()[0]);
  }
  std::sort(all.begin(), all.end());
  all.erase(std::unique(all.begin(), all.end()), all.end());
  const std::uint64_t count = all.size();
  ctl_[0].components = count;
  for (MachineId j = 1; j < out.machines(); ++j) out.send(j, kTagCountBcast, {count}, 64);
}

// --------------------------------------------------------------- helpers

void BoruvkaEngine::write_record(WordWriter& w, Label label, const Record& rec) {
  w.u64(label)
      .u64(rec.state)
      .u64(rec.parent)
      .u64(rec.children_left)
      .u64(rec.thr)
      .u64(rec.has_candidate ? 1 : 0)
      .u64(rec.cand_in)
      .u64(rec.cand_out)
      .u64(rec.cand_w)
      .u64(rec.target);
  for (const auto word : rec.srcs) w.u64(word);
}

void BoruvkaEngine::send_handoffs(LabelRegistry<Record>& from, Outbox& out,
                                  const ProxyMap& to, WordWriter& w) {
  const std::uint64_t rec_bits = 4 * label_bits_ + 140 + cluster_->k();
  from.for_each_sorted([&](Label label, const Record& rec) {
    w.clear();
    write_record(w, label, rec);
    out.send(to.proxy_of(label), kTagHandoff, w.words(), rec_bits);
  });
}

void BoruvkaEngine::apply_handoff(WordReader& reader, LabelRegistry<Record>& into) {
  const Label label = reader.u64();
  bool created = false;
  Record& rec = into.get_or_create(label, created);
  KMM_CHECK_MSG(created, "duplicate record in handoff");
  rec.reset(mask_words());
  rec.state = static_cast<State>(reader.u64());
  rec.parent = reader.u64();
  rec.children_left = static_cast<std::uint32_t>(reader.u64());
  rec.thr = reader.u64();
  rec.has_candidate = reader.u64() != 0;
  rec.cand_in = static_cast<Vertex>(reader.u64());
  rec.cand_out = static_cast<Vertex>(reader.u64());
  rec.cand_w = reader.u64();
  rec.target = reader.u64();
  for (auto& word : rec.srcs) word = reader.u64();
}

void BoruvkaEngine::relabel_part(MachineId machine, Label from, Label to) {
  KMM_DCHECK(from != to);
  auto& parts = machine_parts_[machine];
  KMM_CHECK_MSG(parts.contains(from), "relabel for a part this machine does not hold");
  bool created = false;
  Part& dst = parts.get_or_create(to, created);
  if (created) {
    dst.verts.clear();
    dst.finished = false;
  }
  // Re-find after get_or_create: slot storage may have grown.
  const auto& src = parts.find(from)->verts;
  for (const Vertex v : src) labels_[v] = to;
  dst.verts.insert(dst.verts.end(), src.begin(), src.end());
  parts.erase(from);
}

std::uint64_t BoruvkaEngine::count_distinct_labels() {
  seen_scratch_.assign(n_, 0);
  std::uint64_t count = 0;
  for (const Label label : labels_) {
    if (!seen_scratch_[label]) {
      seen_scratch_[label] = 1;
      ++count;
    }
  }
  return count;
}

// ------------------------------------------------------ snapshot/restore

void BoruvkaEngine::snapshot(MachineId m, WordWriter& w) {
  const Control& c = ctl_[m];
  w.u64(mode_ == BoruvkaMode::kMst ? 1 : 0);
  w.u64(c.phase).u64(c.seg).u64(c.t).u64(c.rho);
  w.u64(c.bit ? 1 : 0).u64(c.converged ? 1 : 0).u64(c.components);
  w.u64(sampler_retries_by_machine_[m]);
  for (const Vertex v : dg_->vertices_of(m)) w.u64(labels_[v]);

  w.u64(machine_parts_[m].size());
  machine_parts_[m].for_each_sorted([&](Label label, const Part& part) {
    w.u64(label).u64(part.finished ? 1 : 0).u64(part.verts.size());
    for (const Vertex v : part.verts) w.u64(v);
  });

  w.u64(resend_[m].size());
  resend_[m].for_each_sorted([&](Label label, const Weight& thr) { w.u64(label).u64(thr); });

  w.u64(proxy_records_[m].size());
  proxy_records_[m].for_each_sorted(
      [&](Label label, const Record& rec) { write_record(w, label, rec); });

  const auto& forest = result_.forest_by_machine[m];
  w.u64(forest.size());
  for (const auto& [u, v] : forest) w.u64(u).u64(v);
  const auto& mst = result_.mst_by_machine[m];
  w.u64(mst.size());
  for (const auto& e : mst) w.u64(e.u).u64(e.v).u64(e.w);
}

void BoruvkaEngine::restore(MachineId m, WordReader& in) {
  KMM_CHECK_MSG(in.u64() == (mode_ == BoruvkaMode::kMst ? 1u : 0u),
                "boruvka restore: the `mode` word does not match the run's mode");
  Control& c = ctl_[m];
  c.phase = static_cast<std::uint32_t>(in.u64());
  c.seg = static_cast<Segment>(
      restore_below(in, kSegmentCount, "boruvka restore: the `segment` word is out of range"));
  c.t = static_cast<std::uint32_t>(in.u64());
  c.rho = static_cast<std::uint32_t>(in.u64());
  c.bit = restore_flag(in, "boruvka restore: the `bit` flag word is not 0/1");
  c.converged = restore_flag(in, "boruvka restore: the `converged` flag word is not 0/1");
  c.components = in.u64();
  sampler_retries_by_machine_[m] = in.u64();
  for (const Vertex v : dg_->vertices_of(m)) labels_[v] = restore_below(in, n_, kBadLabel);

  auto& parts = machine_parts_[m];
  parts.clear();
  for (std::uint64_t count = restore_count(in, 3, kBadCount); count > 0; --count) {
    bool created = false;
    Part& part = parts.get_or_create(restore_below(in, n_, kBadLabel), created);
    KMM_CHECK_MSG(created, "boruvka restore: a part label appears twice");
    part.finished = restore_flag(in, "boruvka restore: the `finished` flag word is not 0/1");
    part.verts.clear();
    for (std::uint64_t size = restore_count(in, 1, kBadCount); size > 0; --size) {
      const auto v = static_cast<Vertex>(restore_below(in, n_, kBadVertex));
      KMM_CHECK_MSG(dg_->home(v) == m, "boruvka restore: a part vertex is not hosted here");
      part.verts.push_back(v);
    }
  }

  resend_[m].clear();
  for (std::uint64_t count = restore_count(in, 2, kBadCount); count > 0; --count) {
    bool created = false;
    Weight& thr = resend_[m].get_or_create(restore_below(in, n_, kBadLabel), created);
    KMM_CHECK_MSG(created, "boruvka restore: a resend label appears twice");
    thr = in.u64();
  }

  const MachineId k = cluster_->k();
  proxy_records_[m].clear();
  for (std::uint64_t count = restore_count(in, 10 + mask_words(), kBadCount); count > 0;
       --count) {
    bool created = false;
    Record& rec = proxy_records_[m].get_or_create(restore_below(in, n_, kBadLabel), created);
    KMM_CHECK_MSG(created, "boruvka restore: a record label appears twice");
    rec.reset(mask_words());
    rec.state = static_cast<State>(restore_below(
        in, kFinishedState + 1, "boruvka restore: a record `state` word is out of range"));
    rec.parent = restore_below(in, n_, kBadLabel);
    rec.children_left = static_cast<std::uint32_t>(in.u64());
    rec.thr = in.u64();
    rec.has_candidate =
        restore_flag(in, "boruvka restore: the `has_candidate` flag word is not 0/1");
    rec.cand_in = static_cast<Vertex>(restore_below(in, n_, kBadVertex));
    rec.cand_out = static_cast<Vertex>(restore_below(in, n_, kBadVertex));
    rec.cand_w = in.u64();
    rec.target = restore_below(in, n_, kBadLabel);
    for (auto& word : rec.srcs) word = in.u64();
    KMM_CHECK_MSG(k % 64 == 0 || (rec.srcs.back() >> (k % 64)) == 0,
                  "boruvka restore: a record `srcs` mask names a machine >= k");
  }

  auto& forest = result_.forest_by_machine[m];
  forest.clear();
  for (std::uint64_t count = restore_count(in, 2, kBadCount); count > 0; --count) {
    const auto u = static_cast<Vertex>(restore_below(in, n_, kBadVertex));
    const auto v = static_cast<Vertex>(restore_below(in, n_, kBadVertex));
    forest.emplace_back(u, v);
  }
  auto& mst = result_.mst_by_machine[m];
  mst.clear();
  for (std::uint64_t count = restore_count(in, 3, kBadCount); count > 0; --count) {
    const auto u = static_cast<Vertex>(restore_below(in, n_, kBadVertex));
    const auto v = static_cast<Vertex>(restore_below(in, n_, kBadVertex));
    mst.push_back(WeightedEdge{u, v, in.u64()});
  }
}

// ---------------------------------------------------------------- driver

void BoruvkaEngine::after_step() {
  const Control& c = ctl_[0];
  if (c.seg == kSketch && c.t == 0) {
    // The step that just ran began phase c.phase.
    PhaseTrace& trace = open_trace_.emplace();
    trace.phase = c.phase;
    trace.components_before = count_distinct_labels();
    trace_rounds_before_ = cluster_->stats().rounds;
    charge_phase_randomness();
  } else if (c.seg == kActiveReport && c.phase > 0) {
    // The step that just ran ended phase c.phase - 1: its merge reduce came
    // back empty. A process resumed inside that phase never saw it begin.
    result_.max_merge_iterations = std::max(result_.max_merge_iterations, c.rho);
    if (!open_trace_) return;
    PhaseTrace& trace = *open_trace_;
    trace.elimination_iterations = c.t + 1;
    trace.merge_iterations = c.rho;
    trace.components_after = count_distinct_labels();
    trace.rounds = cluster_->stats().rounds - trace_rounds_before_;
    result_.phases.push_back(trace);
    open_trace_.reset();
    KMM_LOG_DEBUG("phase %u: %llu -> %llu components, %llu rounds", trace.phase,
                  static_cast<unsigned long long>(trace.components_before),
                  static_cast<unsigned long long>(trace.components_after),
                  static_cast<unsigned long long>(trace.rounds));
  }
}

BoruvkaResult BoruvkaEngine::take_result() {
  result_.converged = ctl_[0].converged;
  if (config_.count_components) {
    result_.num_components = ctl_[0].components;
    KMM_CHECK_MSG(result_.num_components == count_distinct_labels(),
                  "counting protocol disagrees with the label state");
  } else {
    result_.num_components = count_distinct_labels();
  }
  for (const auto retries : sampler_retries_by_machine_) result_.sampler_retries += retries;
  result_.labels = std::move(labels_);
  return std::move(result_);
}

BoruvkaResult run_boruvka(Cluster& cluster, const DistributedGraph& dg,
                          const BoruvkaConfig& config, BoruvkaMode mode) {
  const StatsScope scope(cluster);
  BoruvkaEngine engine(cluster, dg, config, mode);
  Runtime rt(cluster, config, config.fault);
  while (!engine.done()) {
    (void)rt.step(engine, engine.next_mode());
    engine.after_step();
  }
  BoruvkaResult result = engine.take_result();
  result.stats = scope.snapshot();
  return result;
}

}  // namespace kmm
