#include "durable/durable_format.hpp"

#include <algorithm>
#include <limits>

#include "util/crc64.hpp"

namespace kmm {
namespace {

using FrameResult = Expected<DurableFrame, DurableError>;
using SectionsResult = Expected<FrameSections, DurableError>;

constexpr std::size_t kHeaderWords = 6;
// A frame never describes more machines / words than this; the caps turn a
// checksummed-but-insane length field into kMalformed instead of a bad_alloc.
constexpr std::uint64_t kMaxK = 1u << 20;
constexpr std::uint64_t kMaxSectionWords = std::uint64_t{1} << 40;

// 256 KiB: long enough for crc64's interleaved lanes, short enough to be
// checksummed from L2 right after it was written.
constexpr std::size_t kCrcRunWords = std::size_t{1} << 15;

// Per inbox message: src, dst, tag, bits, payload word count.
constexpr std::size_t kMessageFieldWords = 5;

std::size_t ledger_words(const ClusterStats& stats) {
  return 9 + Accumulator::kSerializedWords + 2 + stats.sent_bits_by_machine.size() +
         stats.received_bits_by_machine.size();
}

/// Write cursor over an exactly-sized frame buffer that also chains the
/// CRC-64 over what it wrote in runs of about kCrcRunWords, each while it
/// is still in cache.
class WordCursor {
 public:
  explicit WordCursor(std::span<std::uint64_t> out) noexcept
      : pos_(out.data()), sealed_(out.data()), end_(out.data() + out.size()) {}

  void u64(std::uint64_t v) noexcept {
    KMM_DCHECK(pos_ < end_);
    *pos_++ = v;
  }
  void words(std::span<const std::uint64_t> w) noexcept {
    KMM_DCHECK(w.size() <= static_cast<std::size_t>(end_ - pos_));
    pos_ = std::copy(w.begin(), w.end(), pos_);
  }

  /// Called at section boundaries: once a run is long enough, fold it
  /// into the running CRC.
  void end_section() noexcept {
    if (static_cast<std::size_t>(pos_ - sealed_) >= kCrcRunWords) seal();
  }
  [[nodiscard]] std::uint64_t crc() noexcept {
    seal();
    return crc_;
  }
  [[nodiscard]] bool done() const noexcept { return pos_ == end_; }

 private:
  void seal() noexcept {
    crc_ = crc64_words({sealed_, pos_}, crc_);
    sealed_ = pos_;
  }

  std::uint64_t* pos_;
  std::uint64_t* sealed_;
  std::uint64_t* end_;
  std::uint64_t crc_ = 0;
};

void put_ledger(const ClusterStats& stats, WordCursor& w) {
  w.u64(stats.rounds);
  w.u64(stats.supersteps);
  w.u64(stats.messages);
  w.u64(stats.local_messages);
  w.u64(stats.total_bits);
  w.u64(stats.max_link_bits);
  w.u64(stats.cut_bits);
  w.u64(stats.last_superstep_link_bits);
  w.u64(Accumulator::kSerializedWords);
  w.words(stats.superstep_link_max.serialize());
  for (const auto* vec : {&stats.sent_bits_by_machine, &stats.received_bits_by_machine}) {
    w.u64(vec->size());
    w.words(*vec);
  }
}

DurableError make_error(DurableErrorCode code, std::string message) {
  return DurableError{code, std::move(message), std::string{}};
}

/// Bounds-checked cursor. The body already passed the CRC when this runs,
/// so failures mean a crafted or miswritten frame — surfaced as kMalformed
/// rather than tripping WordReader's abort.
class SafeReader {
 public:
  explicit SafeReader(std::span<const std::uint64_t> words) : words_(words) {}

  [[nodiscard]] bool u64(std::uint64_t& out) {
    if (pos_ >= words_.size()) return false;
    out = words_[pos_++];
    return true;
  }

  [[nodiscard]] bool span(std::size_t count, std::span<const std::uint64_t>& out) {
    if (count > words_.size() - pos_) return false;
    out = words_.subspan(pos_, count);
    pos_ += count;
    return true;
  }

  [[nodiscard]] std::size_t pos() const noexcept { return pos_; }
  [[nodiscard]] bool done() const noexcept { return pos_ == words_.size(); }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t pos_ = 0;
};

bool decode_ledger(SafeReader& r, MachineId k, ClusterStats& stats) {
  std::uint64_t acc_words = 0;
  if (!r.u64(stats.rounds) || !r.u64(stats.supersteps) || !r.u64(stats.messages) ||
      !r.u64(stats.local_messages) || !r.u64(stats.total_bits) ||
      !r.u64(stats.max_link_bits) || !r.u64(stats.cut_bits) ||
      !r.u64(stats.last_superstep_link_bits) || !r.u64(acc_words)) {
    return false;
  }
  if (acc_words != Accumulator::kSerializedWords) return false;
  std::span<const std::uint64_t> acc;
  if (!r.span(Accumulator::kSerializedWords, acc)) return false;
  stats.superstep_link_max.restore(acc);
  for (auto* vec : {&stats.sent_bits_by_machine, &stats.received_bits_by_machine}) {
    std::uint64_t len = 0;
    if (!r.u64(len) || len != k) return false;
    std::span<const std::uint64_t> body;
    if (!r.span(static_cast<std::size_t>(len), body)) return false;
    vec->assign(body.begin(), body.end());
  }
  return true;
}

/// Shared skeleton walk: validates the header and advances a SafeReader
/// over each region, recording the region offsets. Used by both
/// frame_sections (no CRC requirement) and decode_frame (after the CRC).
bool walk_sections(std::span<const std::uint64_t> words, FrameSections& sec,
                   MachineId& k_out) {
  if (words.size() < kHeaderWords + 2) return false;
  const std::uint64_t k64 = words[5];
  if (k64 < 2 || k64 > kMaxK) return false;
  const auto k = static_cast<MachineId>(k64);
  SafeReader r(words.subspan(0, words.size() - 1));  // body only, CRC excluded
  std::span<const std::uint64_t> skip;
  if (!r.span(kHeaderWords, skip)) return false;
  sec.header_begin = 0;
  sec.ledger_begin = r.pos();
  ClusterStats scratch;
  if (!decode_ledger(r, k, scratch)) return false;
  sec.state_begin = r.pos();
  for (MachineId m = 0; m < k; ++m) {
    std::uint64_t count = 0;
    if (!r.u64(count) || count > kMaxSectionWords) return false;
    if (!r.span(static_cast<std::size_t>(count), skip)) return false;
  }
  sec.inbox_begin = r.pos();
  for (MachineId m = 0; m < k; ++m) {
    std::uint64_t msgs = 0;
    if (!r.u64(msgs) || msgs > kMaxSectionWords) return false;
    for (std::uint64_t i = 0; i < msgs; ++i) {
      std::uint64_t src = 0, dst = 0, tag = 0, bits = 0, payload = 0;
      if (!r.u64(src) || !r.u64(dst) || !r.u64(tag) || !r.u64(bits) ||
          !r.u64(payload) || payload > kMaxSectionWords) {
        return false;
      }
      if (!r.span(static_cast<std::size_t>(payload), skip)) return false;
    }
  }
  if (!r.done()) return false;  // trailing garbage inside the checksummed body
  sec.total_words = words.size();
  sec.crc_word = words.size() - 1;
  k_out = k;
  return true;
}

}  // namespace

const char* durable_error_name(DurableErrorCode code) noexcept {
  switch (code) {
    case DurableErrorCode::kIo: return "io";
    case DurableErrorCode::kTruncated: return "truncated";
    case DurableErrorCode::kBadMagic: return "bad-magic";
    case DurableErrorCode::kBadVersion: return "bad-version";
    case DurableErrorCode::kCrcMismatch: return "crc-mismatch";
    case DurableErrorCode::kMalformed: return "malformed";
    case DurableErrorCode::kStateVersionMismatch: return "state-version-mismatch";
    case DurableErrorCode::kFingerprintMismatch: return "fingerprint-mismatch";
    case DurableErrorCode::kClusterWidthMismatch: return "cluster-width-mismatch";
    case DurableErrorCode::kNoGeneration: return "no-generation";
  }
  return "unknown";
}

void DurableFrame::clear(MachineId new_k) {
  state_version = 1;
  fingerprint = 0;
  ordinal = 0;
  k = new_k;
  machine_words.resize(new_k);
  for (auto& words : machine_words) words.clear();  // capacity retained
  ledger = ClusterStats{};
  inbox.resize(new_k);
  for (auto& msgs : inbox) msgs.clear();
  payloads.reset();
}

FrameView::FrameView(const DurableFrame& frame)
    : state_version(frame.state_version),
      fingerprint(frame.fingerprint),
      ordinal(frame.ordinal),
      k(frame.k),
      ledger(&frame.ledger),
      machine_words([&frame](MachineId m) {
        return std::span<const std::uint64_t>(frame.machine_words[m]);
      }),
      inbox([&frame](MachineId m) { return std::span<const Message>(frame.inbox[m]); }) {
  KMM_CHECK_MSG(frame.machine_words.size() == frame.k && frame.inbox.size() == frame.k,
                "frame sections must cover every machine");
}

std::size_t encoded_frame_words(const FrameView& view) {
  std::size_t words = kHeaderWords + ledger_words(*view.ledger) + 1;  // + CRC
  for (MachineId m = 0; m < view.k; ++m) {
    words += 2 + view.machine_words(m).size();  // + state and inbox length words
    for (const Message& msg : view.inbox(m)) words += kMessageFieldWords + msg.payload_words();
  }
  return words;
}

void encode_frame(const FrameView& view, std::span<std::uint64_t> out) {
  WordCursor w(out);
  w.u64(kFrameMagic);
  w.u64(kFrameFormatVersion);
  w.u64(view.state_version);
  w.u64(view.fingerprint);
  w.u64(view.ordinal);
  w.u64(view.k);
  put_ledger(*view.ledger, w);
  w.end_section();
  for (MachineId m = 0; m < view.k; ++m) {
    const auto words = view.machine_words(m);
    w.u64(words.size());
    w.words(words);
    w.end_section();
  }
  for (MachineId m = 0; m < view.k; ++m) {
    const auto msgs = view.inbox(m);
    w.u64(msgs.size());
    for (const Message& msg : msgs) {
      w.u64(msg.src);
      w.u64(msg.dst);
      w.u64(msg.tag);
      w.u64(msg.bits);
      w.u64(msg.payload_words());
      w.words(msg.payload());
    }
    w.end_section();
  }
  w.u64(w.crc());
  KMM_CHECK_MSG(w.done(), "frame buffer must be sized by encoded_frame_words");
}

void encode_frame(const FrameView& view, WordWriter& out) {
  encode_frame(view, out.extend(encoded_frame_words(view)));
}

void encode_ledger(const ClusterStats& stats, WordWriter& out) {
  WordCursor w(out.extend(ledger_words(stats)));
  put_ledger(stats, w);
}

Expected<DurableFrame, DurableError> decode_frame(std::span<const std::uint64_t> words) {
  if (words.size() < kHeaderWords + 2) {
    return FrameResult::err(make_error(
        DurableErrorCode::kTruncated,
        "frame holds " + std::to_string(words.size()) + " words, below the minimum"));
  }
  if (words[0] != kFrameMagic) {
    return FrameResult::err(
        make_error(DurableErrorCode::kBadMagic, "frame magic mismatch — not a checkpoint frame"));
  }
  if (words[1] != kFrameFormatVersion) {
    return FrameResult::err(make_error(
        DurableErrorCode::kBadVersion,
        "frame format version " + std::to_string(words[1]) + " (this build speaks " +
            std::to_string(kFrameFormatVersion) + ")"));
  }
  const std::span<const std::uint64_t> body = words.subspan(0, words.size() - 1);
  const std::uint64_t want_crc = words[words.size() - 1];
  const std::uint64_t got_crc = crc64_words(body);
  if (want_crc != got_crc) {
    return FrameResult::err(make_error(DurableErrorCode::kCrcMismatch,
                                       "frame CRC-64 mismatch — corrupt at rest"));
  }
  FrameSections sec;
  MachineId k = 0;
  if (!walk_sections(words, sec, k)) {
    return FrameResult::err(make_error(DurableErrorCode::kMalformed,
                                       "checksummed frame is structurally impossible"));
  }
  // The skeleton is proven sound; re-walk with the same bounds-checked
  // cursor, this time materializing the sections.
  DurableFrame frame;
  frame.state_version = words[2];
  frame.fingerprint = words[3];
  frame.ordinal = words[4];
  frame.k = k;
  SafeReader r(body);
  std::span<const std::uint64_t> section;
  KMM_CHECK(r.span(kHeaderWords, section));
  KMM_CHECK(decode_ledger(r, k, frame.ledger));
  frame.machine_words.resize(k);
  for (MachineId m = 0; m < k; ++m) {
    std::uint64_t count = 0;
    KMM_CHECK(r.u64(count) && r.span(static_cast<std::size_t>(count), section));
    frame.machine_words[m].assign(section.begin(), section.end());
  }
  frame.inbox.resize(k);
  for (MachineId m = 0; m < k; ++m) {
    std::uint64_t msgs = 0;
    KMM_CHECK(r.u64(msgs));
    frame.inbox[m].reserve(static_cast<std::size_t>(msgs));
    for (std::uint64_t i = 0; i < msgs; ++i) {
      std::uint64_t src = 0, dst = 0, tag = 0, bits = 0, payload = 0;
      KMM_CHECK(r.u64(src) && r.u64(dst) && r.u64(tag) && r.u64(bits) && r.u64(payload));
      if (src >= k || dst >= k || dst != m ||
          tag > std::numeric_limits<std::uint32_t>::max()) {
        return FrameResult::err(make_error(DurableErrorCode::kMalformed,
                                           "inbox message with impossible routing fields"));
      }
      KMM_CHECK(r.span(static_cast<std::size_t>(payload), section));
      frame.inbox[m].push_back(Message::make(static_cast<MachineId>(src),
                                             static_cast<MachineId>(dst),
                                             static_cast<std::uint32_t>(tag), section, bits,
                                             frame.payloads));
    }
  }
  return FrameResult(std::move(frame));
}

Expected<FrameSections, DurableError> frame_sections(std::span<const std::uint64_t> words) {
  FrameSections sec;
  MachineId k = 0;
  if (words.size() < kHeaderWords + 2) {
    return SectionsResult::err(make_error(DurableErrorCode::kTruncated, "frame too short"));
  }
  if (!walk_sections(words, sec, k)) {
    return SectionsResult::err(
        make_error(DurableErrorCode::kMalformed, "frame skeleton does not walk"));
  }
  return SectionsResult(sec);
}

}  // namespace kmm
