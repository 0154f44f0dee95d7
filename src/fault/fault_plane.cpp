#include "fault/fault_plane.hpp"

#include <algorithm>
#include <cstdio>

#include "durable/durable_store.hpp"
#include "util/assert.hpp"

namespace kmm {

namespace {

constexpr char kRule8Msg[] =
    "fault plane: crash injected into a program that is not checkpointable — "
    "see porting recipe rule 8 in runtime.hpp";

inline std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) noexcept {
  return a == 0 ? 0 : (a + b - 1) / b;
}

}  // namespace

void FaultPlane::ensure_k(MachineId k) {
  if (k_ == k) return;
  KMM_CHECK_MSG(k_ == 0, "one FaultPlane cannot span clusters of different k");
  k_ = k;
  per_src_bits_.assign(k, 0);
  overhead_bits_.assign(static_cast<std::size_t>(k) * k, 0);
  link_seq_.assign(static_cast<std::size_t>(k) * k, 0);
  store_.ensure(k);
  replay_shard_.resize(k);
  ring_.resize(config_.checkpoint_every);
  for (RingSlot& slot : ring_) slot.inbox.resize(k);
}

void FaultPlane::checkpoint_all(Cluster& cluster, MachineProgram& program) {
  const MachineId k = cluster.k();
  for (MachineId m = 0; m < k; ++m) {
    WordWriter& w = store_.writer(m);
    program.snapshot(m, w);
    stats_.checkpoint_words += w.size();
  }
  store_.set_step(ordinal_);
  ++stats_.checkpoints;
}

std::size_t FaultPlane::begin_step(Cluster& cluster, MachineProgram& program) {
  const MachineId k = cluster.k();
  ensure_k(k);
  if (pending_resume_ != nullptr) apply_resume(cluster, program);
  crash_scratch_.clear();
  schedule_->crashes_at(ordinal_, k, crash_scratch_);
  if (config_.lethal_crashes) {
    // Serving-layer kill model: no checkpoints, no logs, no recovery. A
    // crash-free schedule makes this branch a pure no-op (the silent-plane
    // neutrality the retry determinism tests rely on); a scheduled crash
    // kills the whole attempt for the service to retry on a fresh cluster.
    if (crash_scratch_.empty()) return 0;
    stats_.crashes += crash_scratch_.size();
    step_events_ += crash_scratch_.size();
    throw QueryKilled{ordinal_, crash_scratch_.front().machine};
  }
  const bool checkpointable = program.checkpointable();
  const bool ckpt_active = config_.always_checkpoint || schedule_->has_crashes();
  // An attached durable store activates cadence checkpointing on its own:
  // the whole point of durability is surviving a kill the schedule never
  // planned, so a crash-free schedule must still produce generations.
  const bool durable_active = durable_ != nullptr && checkpointable;

  if ((ckpt_active || durable_active) && checkpointable &&
      ordinal_ % config_.checkpoint_every == 0) {
    checkpoint_all(cluster, program);
    if (durable_active) durable_commit(cluster, program);
  }

  if (!crash_scratch_.empty()) {
    KMM_CHECK_MSG(checkpointable, kRule8Msg);
    recover_checkpointable(cluster, program);
    unsigned stall = 0;
    for (const FaultSchedule::Crash& c : crash_scratch_) {
      rebuild_inbox(cluster, c.machine);
      stall = std::max(stall, c.stall);  // concurrent crashes overlap their stalls
      ++stats_.crashes;
      if (c.hang) ++stats_.watchdog_trips;
    }
    cluster.charge_rounds(stall);
    stats_.stall_rounds += stall;
    step_events_ += crash_scratch_.size();
  }

  if (ckpt_active && checkpointable) log_inboxes(cluster);
  return crash_scratch_.size();
}

void FaultPlane::recover_checkpointable(Cluster& cluster, MachineProgram& program) {
  const std::uint64_t c0 = store_.step();
  KMM_DCHECK(c0 <= ordinal_ && ordinal_ - c0 < config_.checkpoint_every);
  for (const FaultSchedule::Crash& c : crash_scratch_) {
    WordReader r(store_.words(c.machine));
    program.restore(c.machine, r);
    KMM_CHECK_MSG(r.done(), "fault plane: MachineProgram::restore left unread words");
    ++stats_.restores;
    // Replay the victim forward through its logged inboxes. Its sends are
    // discarded: the receivers processed the originals in the live run, and
    // the per-link sequence numbers mark the replays as duplicates.
    for (std::uint64_t t = c0; t < ordinal_; ++t) {
      RingSlot& slot = ring_[t % config_.checkpoint_every];
      KMM_CHECK_MSG(slot.step == t, "fault plane: replay log slot was overwritten");
      replay_shard_.clear();
      Outbox out(replay_shard_, c.machine, cluster.k());
      program.on_superstep(c.machine, slot.inbox[c.machine], out);
      ++stats_.replayed_steps;
    }
  }
  replay_shard_.clear();
}

void FaultPlane::rebuild_inbox(Cluster& cluster, MachineId victim) {
  // The crash loses the victim's current inbox; senders retransmit from
  // their outbox logs. In simulation the content is recoverable in place
  // (copy out, drop, re-inject), and the protocol cost is charged exactly
  // like a delivery: max over inbound links of ceil(bits / bandwidth).
  inbox_scratch_.clear();
  scratch_arena_.reset();
  std::fill(per_src_bits_.begin(), per_src_bits_.end(), 0);
  for (const Message& m : cluster.inbox(victim)) {
    Message copy = m;
    copy.reintern(scratch_arena_);
    inbox_scratch_.push_back(copy);
    if (copy.src != victim) per_src_bits_[copy.src] += copy.wire_bits();
  }
  cluster.clear_inbox(victim);
  std::uint64_t retrans = 0;
  for (MachineId s = 0; s < k_; ++s) {
    if (per_src_bits_[s] == 0) continue;
    stats_.retransmit_bits += per_src_bits_[s];
    retrans = std::max(retrans, ceil_div(per_src_bits_[s], cluster.bandwidth_bits()));
  }
  if (retrans > 0) {
    cluster.charge_rounds(retrans);
    stats_.overhead_rounds += retrans;
  }
  for (const Message& m : inbox_scratch_) cluster.inject_inbox(victim, m);
}

void FaultPlane::log_inboxes(Cluster& cluster) {
  RingSlot& slot = ring_[ordinal_ % config_.checkpoint_every];
  slot.step = ordinal_;
  slot.arena.reset();
  for (MachineId m = 0; m < k_; ++m) {
    auto& log = slot.inbox[m];
    const auto inbox = cluster.inbox(m);
    log.assign(inbox.begin(), inbox.end());
    for (Message& msg : log) msg.reintern(slot.arena);
  }
}

void FaultPlane::durable_commit(Cluster& cluster, MachineProgram& program) {
  // The in-RAM generation (store_) was just taken at this ordinal; the frame
  // marries it to the ledger-so-far and the inbox this superstep's handlers
  // are about to read — everything a restarted process needs to re-enter the
  // computation at exactly this instant. The view borrows all three, so the
  // store encodes straight from them without an intermediate copy.
  FrameView view;
  view.state_version = program.state_version();
  view.ordinal = ordinal_;
  view.k = k_;
  view.ledger = &cluster.stats();
  view.machine_words = [this](MachineId m) { return store_.words(m); };
  view.inbox = [&cluster](MachineId m) { return cluster.inbox(m); };
  auto committed = durable_->commit(std::move(view));
  if (!committed.ok()) {
    // A durability plane that silently stops persisting is worse than one
    // that stops the run: fail loudly with the structured diagnostic.
    std::fprintf(stderr, "kmm: durable checkpoint commit failed [%s]: %s (%s)\n",
                 durable_error_name(committed.error().code),
                 committed.error().message.c_str(), committed.error().path.c_str());
    KMM_CHECK_MSG(false, "durable checkpoint commit failed — refusing to run undurably");
  }
  ++stats_.durable_commits;
}

void FaultPlane::apply_resume(Cluster& cluster, MachineProgram& program) {
  const DurableFrame& frame = *pending_resume_;
  pending_resume_ = nullptr;
  KMM_CHECK_MSG(frame.k == k_, "durable resume: frame cluster width mismatch");
  KMM_CHECK_MSG(program.checkpointable(),
                "durable resume requires a checkpointable program — see porting "
                "recipe rule 10 in runtime.hpp");
  for (MachineId m = 0; m < k_; ++m) {
    WordReader r(frame.machine_words[m]);
    program.restore(m, r);
    KMM_CHECK_MSG(r.done(), "durable resume: restore left unread words");
  }
  // Re-inject the frame's inbox window (ledger-free — the bits were charged
  // before the frame was taken) and restore the ledger itself, then rewind
  // the plane to the frame's ordinal. From here deterministic re-execution
  // reproduces the uninterrupted run bit-for-bit.
  for (MachineId m = 0; m < k_; ++m) {
    cluster.clear_inbox(m);
    for (const Message& msg : frame.inbox[m]) cluster.inject_inbox(m, msg);
  }
  cluster.restore_stats(frame.ledger);
  ordinal_ = frame.ordinal;
  ++stats_.resumes;
}

void FaultPlane::apply_link_faults(Cluster& cluster, std::span<OutboxShard> shards) {
  if (!schedule_->has_link_faults()) return;
  const MachineId k = cluster.k();
  ensure_k(k);
  bool any_overhead = false;
  for (MachineId src = 0; src < k; ++src) {
    for (MachineId dst = 0; dst < k; ++dst) {
      if (src == dst) continue;  // local messages never touch a wire
      auto& bucket = shards[src].buckets[dst];
      if (bucket.empty()) continue;
      std::uint64_t& link_overhead = overhead_bits_[static_cast<std::size_t>(src) * k + dst];
      std::uint64_t& next_seq = link_seq_[static_cast<std::size_t>(src) * k + dst];
      const bool shuffled = schedule_->reordered(ordinal_, src, dst);

      // Transmit side: sequence-number every message, then emulate the
      // per-message faults. Drops model bounded retransmission (each failed
      // attempt burns the wire bits); a duplicate inserts an in-transit
      // copy under the same sequence number.
      transit_scratch_.clear();
      for (std::uint64_t idx = 0; idx < bucket.size(); ++idx) {
        Message msg = bucket[idx];
        const unsigned fails = schedule_->drop_attempts(ordinal_, src, dst, idx);
        if (fails > 0) {
          link_overhead += std::uint64_t{fails} * msg.wire_bits();
          stats_.drops += fails;
          step_events_ += fails;
        }
        std::uint64_t mask = 0;
        if (msg.payload_words() > 0 &&
            schedule_->corrupted(ordinal_, src, dst, idx, &mask)) {
          // Same word count and declared bits: the ledger is structurally
          // blind to the tamper — only the verification layer can see it.
          auto payload = msg.payload();
          corrupt_words_.assign(payload.begin(), payload.end());
          corrupt_words_.back() ^= mask;
          msg = Message::make(msg.src, msg.dst, msg.tag, corrupt_words_, msg.bits,
                              shards[src].arena);
          ++stats_.corruptions;
          ++step_events_;
        }
        const std::uint64_t seq = next_seq + idx;
        const std::uint64_t rank =
            shuffled ? schedule_->shuffle_rank(ordinal_, src, dst, seq) : seq;
        transit_scratch_.push_back({seq, rank, msg});
        if (schedule_->duplicated(ordinal_, src, dst, idx)) {
          link_overhead += msg.wire_bits();
          ++stats_.duplicates;
          ++step_events_;
          transit_scratch_.push_back({seq, rank + 1, msg});
        }
      }
      next_seq += bucket.size();

      if (shuffled) {
        std::sort(transit_scratch_.begin(), transit_scratch_.end(),
                  [](const TransitMsg& a, const TransitMsg& b) {
                    return a.rank != b.rank ? a.rank < b.rank : a.seq < b.seq;
                  });
        ++stats_.reorders;
        ++step_events_;
      }

      // Receive side: a stable sort by sequence number restores send order
      // whatever transit did, and adjacent equal sequences are duplicate
      // transmissions — suppressed. The bucket handed to delivery is thus
      // exactly the fault-free sequence again.
      std::stable_sort(transit_scratch_.begin(), transit_scratch_.end(),
                       [](const TransitMsg& a, const TransitMsg& b) { return a.seq < b.seq; });
      bucket.clear();
      std::uint64_t last_seq = ~std::uint64_t{0};
      for (const TransitMsg& t : transit_scratch_) {
        if (t.seq == last_seq) continue;
        last_seq = t.seq;
        bucket.push_back(t.msg);
      }
      if (link_overhead > 0) any_overhead = true;
    }
  }
  if (any_overhead) {
    // The overhead charge follows the delivery rule: the most-loaded link's
    // extra bits, rounded up to rounds. Per-link accumulators are reset for
    // the next step (capacity retained, no allocation).
    std::uint64_t extra = 0;
    for (std::uint64_t& bits : overhead_bits_) {
      extra = std::max(extra, ceil_div(bits, cluster.bandwidth_bits()));
      bits = 0;
    }
    cluster.charge_rounds(extra);
    stats_.overhead_rounds += extra;
  }
}

}  // namespace kmm
