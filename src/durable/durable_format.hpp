#pragma once
// The durable checkpoint frame: everything a process needs to resume a
// checkpointable program mid-computation, serialized as a flat 64-bit word
// stream with a trailing CRC-64 over the whole body.
//
// A frame taken at plane ordinal c0 captures the instant at the TOP of
// superstep c0, before any handler runs:
//   * per-machine program state words (MachineProgram::snapshot),
//   * the superstep ordinal c0,
//   * the full ClusterStats ledger as of the end of superstep c0-1
//     (doubles bit_cast to words, so restored accumulators continue the
//     exact floating-point trajectory),
//   * the inbox-replay window: every machine's delivered inbox — the
//     input superstep c0's handlers are about to read.
// Restoring all four and re-driving the deterministic engine from c0
// reproduces the uninterrupted run bit-for-bit: same answer, same ledger.
//
// Word layout (all fields one word unless noted):
//   header  [0..6):  magic, format version, state version (rule 10),
//                    fingerprint, ordinal, k
//   ledger  [6..):   fixed scalars, accumulator (6 words), two length-
//                    prefixed per-machine vectors
//   state   [..):    per machine: word count, then the words
//   inbox   [..):    per machine: message count, then per message
//                    src, dst, tag, bits, payload word count, payload
//   crc     [last]:  CRC-64/XZ of every preceding word
//
// Decode validates in a fixed order that maps each on-disk failure mode to
// one structured error: magic -> kBadMagic, format version -> kBadVersion,
// short file -> kTruncated, any body flip (including the CRC word itself)
// -> kCrcMismatch, impossible-but-checksummed structure -> kMalformed.
// Staleness (state version / fingerprint / k against what the resuming
// process expects) is the RecoveryManager's layer, not the codec's.

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/message.hpp"
#include "cluster/payload_arena.hpp"
#include "util/codec.hpp"
#include "util/expected.hpp"

namespace kmm {

inline constexpr std::uint64_t kFrameMagic = 0x6B6D6D6664757231ULL;  // "kmmfdur1"
inline constexpr std::uint64_t kFrameFormatVersion = 1;

enum class DurableErrorCode : std::uint8_t {
  kIo,                    // open/read/write/fsync failed (errno in message)
  kTruncated,             // file shorter than a decodable frame / torn tail
  kBadMagic,              // not a checkpoint frame
  kBadVersion,            // frame format this build does not speak
  kCrcMismatch,           // body checksum failed — corrupt at rest
  kMalformed,             // checksummed but structurally impossible
  kStateVersionMismatch,  // program's serialized-state version moved on (rule 10)
  kFingerprintMismatch,   // frame belongs to a different graph/config
  kClusterWidthMismatch,  // frame's k differs from the resuming cluster
  kNoGeneration,          // directory holds no restorable generation
};

[[nodiscard]] const char* durable_error_name(DurableErrorCode code) noexcept;

/// Structured diagnostic for anything the durable plane rejects. Never an
/// abort: a corrupt generation is an expected runtime condition and the
/// caller decides whether to fall back to an older one.
struct DurableError {
  DurableErrorCode code = DurableErrorCode::kIo;
  std::string message;
  std::string path;  // offending file, when one exists
};

struct DurableFrame {
  std::uint64_t state_version = 1;  // MachineProgram::state_version() (rule 10)
  std::uint64_t fingerprint = 0;    // caller's graph/config identity hash
  std::uint64_t ordinal = 0;        // superstep the frame resumes at
  MachineId k = 0;

  std::vector<std::vector<std::uint64_t>> machine_words;  // [k] snapshot words

  ClusterStats ledger;  // as of the end of superstep ordinal-1

  /// The inbox-replay window, [k] in delivered order. Spilled payloads
  /// live in `payloads`, so the frame owns its bytes.
  std::vector<std::vector<Message>> inbox;
  PayloadArena payloads;

  void clear(MachineId new_k);
};

/// Borrowed view of everything one frame holds: the input of the frame
/// encoder. The FaultPlane points it straight at its checkpoint store, the
/// cluster ledger and the delivered inboxes, so a commit copies nothing
/// before encoding; a DurableFrame converts to one implicitly (like a
/// string to a string_view, the frame must outlive the view).
struct FrameView {
  std::uint64_t state_version = 1;
  std::uint64_t fingerprint = 0;
  std::uint64_t ordinal = 0;
  MachineId k = 0;
  const ClusterStats* ledger = nullptr;
  std::function<std::span<const std::uint64_t>(MachineId)> machine_words;
  std::function<std::span<const Message>(MachineId)> inbox;

  FrameView() = default;
  FrameView(const DurableFrame& frame);  // NOLINT(google-explicit-constructor)
};

/// Word offsets of each region inside an encoded frame — the corruption
/// tests flip bytes per region, and tools can use it to explain a frame.
/// Parsed from the header + length fields only (no CRC pass), so it works
/// on corrupt frames as long as the skeleton is intact.
struct FrameSections {
  std::size_t total_words = 0;
  std::size_t header_begin = 0;  // always 0
  std::size_t ledger_begin = 0;
  std::size_t state_begin = 0;
  std::size_t inbox_begin = 0;
  std::size_t crc_word = 0;  // == total_words - 1
};

/// Exact size in words of the frame `view` encodes to (header to CRC).
[[nodiscard]] std::size_t encoded_frame_words(const FrameView& view);

/// The frame encoder (every other encode path calls this one): writes the
/// complete frame (header, ledger, state, inbox, CRC) in one pass into
/// `out`, which must hold exactly encoded_frame_words(view) words. The CRC
/// is chained over runs of the output while each is still in cache.
void encode_frame(const FrameView& view, std::span<std::uint64_t> out);

/// Append the complete frame to `out`.
void encode_frame(const FrameView& view, WordWriter& out);

/// Just the ledger section (no header/CRC) — the same words encode_frame
/// writes, for tests that compare two ledgers bit-for-bit including the
/// accumulator's internal floating-point state.
void encode_ledger(const ClusterStats& stats, WordWriter& out);

/// Decode and validate one frame. See the header comment for the
/// error-code taxonomy; on success the frame is structurally complete and
/// checksum-clean (staleness is checked by the RecoveryManager).
[[nodiscard]] Expected<DurableFrame, DurableError> decode_frame(
    std::span<const std::uint64_t> words);

[[nodiscard]] Expected<FrameSections, DurableError> frame_sections(
    std::span<const std::uint64_t> words);

}  // namespace kmm
