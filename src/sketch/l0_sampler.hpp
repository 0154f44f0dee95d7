#pragma once
// Multi-level l0-sampler over a universe [0, U) with values in {-1,0,+1}
// (Section 2.3; [10],[17],[32]).
//
// Structure: `copies` independent repetitions; each repetition holds
// `levels` one-sparse cells. Item i participates in levels 0..z(i) of copy
// c, where z(i) is the number of trailing zeros of h_c(i) — i.e. level l
// subsamples the universe at rate 2^-l. If the vector has support s, the
// level near log2(s) is 1-sparse with constant probability, so a query
// succeeds w.h.p. across copies and recovers a (near-)uniform support
// element.
//
// Linearity: samplers built from the same (universe, params, seed) add
// coordinate-wise; sketch(a) + sketch(b) = sketch(a+b) exactly.
//
// All randomness comes from `seed` — machines sharing a seed build
// combinable sketches, which is how the k-machine algorithm ships per-part
// sketches to proxies and sums them there.
//
// Prefix-compact representation. Because an update touches levels
// 0..z(i) of each copy, the cells a sketch has ever touched in copy c form
// a prefix [0, h_c) (`used` below; every cell at level >= h_c is zero).
// reset(), add(), sample() and serialize() work on those prefixes only, so
// a sketch of a small part — the common case in the Borůvka engine, a few
// vertices and a dozen edges — costs O(used cells), not O(levels × copies).
//
// Wire form (serialize / add_serialized / deserialize), canonical for the
// summarized vector:
//
//     len_0 len_1 ... len_{copies-1}            one header word per copy
//     cells of copy 0 at levels [0, len_0)      3 words each: s0 s1 s2
//     ...
//     cells of copy copies-1 at [0, len_{copies-1})
//
// len_c is h_c with trailing all-zero cells trimmed, so two sketches of the
// same vector serialize to the same words however they were built (summed
// parts, cancellations, a recycled pooled sampler). The payload is
// `copies + 3 * Σ len_c` words, at most max_wire_words().
//
// The *declared* size is still the full logical sketch: wire_bits() charges
// every cell of every level and copy, the O(log^2 n)-bit sketch the paper's
// bounds are stated for. The message's declared bits, not its payload
// length, drive the ClusterStats ledger (cluster/message.hpp), so the
// compact form changes what the simulator moves, never what it charges.

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "sketch/one_sparse.hpp"
#include "sketch/power_table.hpp"
#include "util/codec.hpp"
#include "util/hashing.hpp"

namespace kmm {

struct L0Params {
  int levels = 16;
  int copies = 3;

  /// Levels to cover a universe of `universe` indices: log2(U) + 2 slack.
  [[nodiscard]] static L0Params for_universe(std::uint64_t universe, int copies = 3);

  [[nodiscard]] int cells() const noexcept { return levels * copies; }
};

class L0Sampler {
 public:
  /// Upper bound on `copies`: per-copy level seeds and prefix lengths live
  /// inline, so a sampler owns exactly one heap block (its cells).
  static constexpr int kMaxCopies = 8;

  L0Sampler(std::uint64_t universe, L0Params params, std::uint64_t seed);

  /// Add `value` (±1) at `index`, walking levels 0..z_c(index) of every
  /// copy. `r_pow_index_per_copy[c]` must equal r_c^index. The reference
  /// update: GraphSketchBuilder::accumulate_part builds the same cells in
  /// O(1) per copy (top cell, then one suffix-sum pass), and tests pin the
  /// two equal.
  void update(std::uint64_t index, int value, const std::uint64_t* r_pow_index_per_copy);

  /// Convenience overload computing the fingerprint powers directly
  /// (O(log U) field mults per copy).
  void update(std::uint64_t index, int value);

  /// Linear combination; other must share (universe, params, seed). Touches
  /// only `other`'s used prefixes.
  void add(const L0Sampler& other);

  /// Linear combination with a sketch in wire form (see the top of this
  /// file), read straight off `reader` without materializing the sending
  /// sketch — the proxy-side merge path of the Borůvka engine. Exactly
  /// equivalent to deserialize() + add(). Every length is checked against
  /// `levels` and the words left in `reader` before any cell is touched: on
  /// a malformed payload it returns false and leaves both this sampler and
  /// `reader` unchanged.
  [[nodiscard]] bool add_serialized(WordReader& reader);

  /// Re-zero the used cells and rebind to `seed`, retaining cell storage —
  /// the SketchPool recycling hook (universe/params stay fixed).
  void reset(std::uint64_t seed) noexcept;

  /// Recover some nonzero index, or nullopt if the vector appears empty /
  /// recovery failed everywhere (probability polynomially small for
  /// nonzero vectors). Verifies candidates with r^index from `powers`,
  /// which must be bound to this sampler's (universe, copies, seed).
  [[nodiscard]] std::optional<Recovered> sample(const PowerTable& powers) const;

  /// Reference flavor of the same: r^index by square-and-multiply
  /// (OneSparseCell::recover). Equal results, ~90 field mults per check.
  [[nodiscard]] std::optional<Recovered> sample() const;

  /// Whole-vector zero test via the level-0 fingerprints of every copy:
  /// exact for the zero vector; a nonzero vector passes with probability
  /// <= (U/p)^copies. Used for algorithm termination and the MST
  /// MWOE confirmation step.
  [[nodiscard]] bool is_zero() const;

  /// Fingerprint base of copy c (needed by power-table builders).
  [[nodiscard]] std::uint64_t fingerprint_base(int copy) const;
  /// Same derivation without an instance — power-table builders rebind to a
  /// new seed without constructing a probe sampler.
  [[nodiscard]] static std::uint64_t fingerprint_base_for(std::uint64_t seed, int copy);
  /// Level-hash seed of copy c.
  [[nodiscard]] std::uint64_t level_seed(int copy) const {
    return level_seed_[static_cast<std::size_t>(copy)];
  }
  /// Level (0..levels-1) that index participates up to, in copy c.
  [[nodiscard]] int level_of(std::uint64_t index, int copy) const;

  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] const L0Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Logical wire size of the sketch: every cell of every level and copy,
  /// whatever the compact payload's length (see the top of this file).
  [[nodiscard]] std::uint64_t wire_bits() const;

  /// Payload words of the largest possible serialized form (every cell
  /// used) — what a writer or message slot needs to hold any sketch of
  /// this shape.
  [[nodiscard]] std::size_t max_wire_words() const noexcept {
    return static_cast<std::size_t>(params_.copies) + 3 * cells_.size();
  }

  /// Append the canonical compact wire form to `out`, reserving
  /// max_wire_words() so a reused writer reaches its steady capacity on
  /// first use.
  void serialize(WordWriter& out) const;

  /// Rebuild a sketch from `reader` given matching construction parameters;
  /// aborts on a malformed payload.
  static L0Sampler deserialize(std::uint64_t universe, L0Params params, std::uint64_t seed,
                               WordReader& reader);

 private:
  // The sketch kernel adds into top cells and closes with a suffix-sum pass
  // over the used prefixes — an intermediate state only it may create.
  friend class GraphSketchBuilder;

  void bind_seed(std::uint64_t seed) noexcept;

  /// Cells of copy c, levels 0..levels-1 contiguous.
  [[nodiscard]] OneSparseCell* copy_cells(int copy) noexcept {
    return cells_.data() + static_cast<std::size_t>(copy * params_.levels);
  }
  [[nodiscard]] const OneSparseCell* copy_cells(int copy) const noexcept {
    return cells_.data() + static_cast<std::size_t>(copy * params_.levels);
  }
  [[nodiscard]] int& used(int copy) noexcept { return used_[static_cast<std::size_t>(copy)]; }
  [[nodiscard]] int used(int copy) const noexcept {
    return used_[static_cast<std::size_t>(copy)];
  }

  std::uint64_t universe_;
  L0Params params_;
  std::uint64_t seed_;
  // Per copy: the level-hash seed derived from seed_ (cached off the
  // per-update path) and the used-prefix length h_c.
  std::array<std::uint64_t, kMaxCopies> level_seed_{};
  std::array<int, kMaxCopies> used_{};
  std::vector<OneSparseCell> cells_;
};

}  // namespace kmm
