#pragma once
// On-disk generation store the FaultPlane tees checkpoints into. Each
// commit writes one frame file `gen-<ordinal>.kmmframe` via write-to-temp
// + fsync + atomic-rename (util/atomic_file), so the directory only ever
// contains complete, checksummed generations plus at most one ignorable
// `.tmp` from an interrupted commit. Older generations beyond
// `keep_generations` are pruned after each successful commit — the window
// a RecoveryManager can fall back across when the newest frame is corrupt.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "durable/durable_format.hpp"
#include "util/expected.hpp"

namespace kmm {

struct DurableStoreConfig {
  std::string dir;
  bool fsync = true;                  // off: bench mode measuring pure write cost
  std::size_t keep_generations = 3;   // retained on disk after each commit
  std::uint64_t fingerprint = 0;      // stamped into every frame
};

class DurableStore {
 public:
  /// Creates the directory if needed and adopts any generations already in
  /// it (a resumed process keeps pruning correctly across restarts).
  explicit DurableStore(DurableStoreConfig config);

  [[nodiscard]] const DurableStoreConfig& config() const noexcept { return config_; }

  /// Serialize and atomically commit one generation. The view's
  /// fingerprint is overridden with the store's. The frame is encoded
  /// straight from the view into a buffer sized exactly up front, whose
  /// capacity is retained across commits. Returns the committed file's size
  /// in bytes. Re-committing an ordinal overwrites its file atomically (an
  /// identical frame, on the resume path).
  [[nodiscard]] Expected<std::uint64_t, DurableError> commit(FrameView view);

  struct Stats {
    std::uint64_t commits = 0;
    std::uint64_t bytes_written = 0;
    std::uint64_t pruned = 0;
    std::uint64_t encode_ns = 0;  // wall time encoding frames (sizing, words, CRC)
    std::uint64_t io_ns = 0;      // wall time in the atomic write and pruning
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  [[nodiscard]] static std::string generation_path(const std::string& dir,
                                                   std::uint64_t ordinal);

  /// All committed generations in `dir`, ascending by ordinal. Files that
  /// do not match the generation naming scheme (including `.tmp` leftovers)
  /// are ignored.
  [[nodiscard]] static Expected<std::vector<std::pair<std::uint64_t, std::string>>,
                                DurableError>
  list_generations(const std::string& dir);

 private:
  void prune();

  DurableStoreConfig config_;
  std::vector<std::uint64_t> buffer_;     // frame encoding buffer; only ever grows
  std::vector<std::uint64_t> on_disk_;    // committed ordinals, ascending
  Stats stats_;
};

}  // namespace kmm
