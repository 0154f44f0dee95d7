#pragma once
// Windowed fingerprint-power table: r_c^i for every sampler copy c and any
// index i in the universe [0, U), in D - 1 field mults per copy.
//
// The index is split into D = ceil(bits(U-1) / 9) digits of w bits each,
// w = ceil(bits(U-1) / D) <= 9 (balanced, so no digit is wasted). Entry
//     T[d][j][c] = r_c^(j * 2^(w*d))      d < D, j < 2^w, c < copies
// and r_c^i is the product of the D entries picked by i's digits. Entries
// are copy-interleaved — one row holds every copy's factor — so looking up
// one index for all copies touches the same D rows.
//
// The table has D * 2^w * copies words (36 KB at n = 2^13 with 3 copies)
// and rebind() costs the same number of field mults: both depend on
// log U only, never on n itself.

#include <cstdint>
#include <vector>

#include "util/assert.hpp"
#include "util/prime_field.hpp"

namespace kmm {

class PowerTable {
 public:
  /// Sizes the table for indices in [0, universe); storage is allocated
  /// here once. rebind() fills it.
  PowerTable(std::uint64_t universe, int copies);

  /// Refill for the fingerprint bases of `seed` (L0Sampler::
  /// fingerprint_base_for). Zero allocations.
  void rebind(std::uint64_t seed);

  /// r_copy^index: the product of one entry per digit.
  [[nodiscard]] std::uint64_t power(std::uint64_t index, int copy) const noexcept {
    KMM_DCHECK(index < universe_ && copy < copies_);
    std::uint64_t acc = row_of(0, index)[copy];
    for (int d = 1; d < digits_; ++d) {
      index >>= window_;
      acc = fp::mul(acc, row_of(d, index)[copy]);
    }
    return acc;
  }

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t universe() const noexcept { return universe_; }
  [[nodiscard]] int copies() const noexcept { return copies_; }
  [[nodiscard]] int digits() const noexcept { return digits_; }
  [[nodiscard]] int window_bits() const noexcept { return window_; }
  /// Table size in 64-bit words: digits × 2^window_bits × copies.
  [[nodiscard]] std::size_t words() const noexcept { return table_.size(); }

 private:
  /// Row (all copies) of digit d for the low window of `index`.
  [[nodiscard]] const std::uint64_t* row_of(int d, std::uint64_t index) const noexcept {
    const std::size_t j = (static_cast<std::size_t>(d) << window_) | (index & mask_);
    return table_.data() + j * static_cast<std::size_t>(copies_);
  }

  std::uint64_t universe_;
  int copies_;
  int digits_;
  int window_;
  std::uint64_t mask_;  // 2^window - 1
  std::uint64_t seed_ = 0;
  std::vector<std::uint64_t> table_;
};

}  // namespace kmm
