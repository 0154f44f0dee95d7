#pragma once
// One-sparse recovery cell — the primitive underneath l0-sampling
// ([17] Jowhari–Saglam–Tardos; [10] Cormode–Firmani; paper Section 2.3).
//
// A cell summarizes a vector a ∈ {-1,0,+1}^U with three counters:
//     s0 = Σ a_i          (plain integer)
//     s1 = Σ a_i · i      (mod p = 2^61-1)
//     s2 = Σ a_i · r^i    (mod p, fingerprint base r)
// Cells are linear: add() gives the cell of the summed vectors. If a is
// exactly 1-sparse with a_i = ±1, then s0 = ±1, i = ±s1, and the
// fingerprint verifies s2 = s0 · r^i; any non-1-sparse vector passes the
// verification with probability ≤ U/p (Schwartz–Zippel), which is < 2^-19
// even for U = n^2 at n = 2^21.

#include <cstdint>
#include <optional>
#include <type_traits>

#include "util/prime_field.hpp"

namespace kmm {

struct Recovered {
  std::uint64_t index;
  int value;  // +1 or -1
};

class OneSparseCell {
 public:
  /// Add `value` (±1) at `index`; `r_pow_index` must equal r^index mod p
  /// (callers look it up — see sketch/power_table.hpp).
  void update(std::uint64_t index, int value, std::uint64_t r_pow_index) noexcept;

  /// Linear combination with another cell over the same (U, r).
  void add(const OneSparseCell& other) noexcept;

  /// Linear combination with a cell in its 3-word wire form (s0, s1, s2) —
  /// the proxy-side merge path, which adds serialized cells straight off a
  /// message payload without materializing the sending sketch. s1/s2 are
  /// reduced on entry and s0 adds with two's-complement wraparound, so any
  /// 64-bit wire words are accepted; for words produced by serialize() the
  /// reduction is a no-op.
  void add_raw(std::int64_t s0, std::uint64_t s1, std::uint64_t s2) noexcept {
    s0_ = static_cast<std::int64_t>(static_cast<std::uint64_t>(s0_) +
                                    static_cast<std::uint64_t>(s0));
    s1_ = fp::add(s1_, fp::reduce(s1));
    s2_ = fp::add(s2_, fp::reduce(s2));
  }

  /// All counters zero (necessary for the zero vector; used with the
  /// fingerprint-only is_zero test at the sampler level).
  [[nodiscard]] bool all_zero() const noexcept { return s0_ == 0 && s1_ == 0 && s2_ == 0; }

  /// The entry the cell holds if it is 1-sparse: s0 = ±1 and the index
  /// s0 · s1 inside [0, universe). Unverified — confirm with verifies().
  [[nodiscard]] std::optional<Recovered> candidate(std::uint64_t universe) const noexcept {
    if (s0_ != 1 && s0_ != -1) return std::nullopt;
    const std::uint64_t idx = s0_ == 1 ? s1_ : fp::neg(s1_);
    if (idx >= universe) return std::nullopt;
    return Recovered{idx, s0_ == 1 ? 1 : -1};
  }

  /// Fingerprint check of a candidate: s2 == value · r^index, given
  /// `r_pow_index` = r^index.
  [[nodiscard]] bool verifies(const Recovered& rec, std::uint64_t r_pow_index) const noexcept {
    return s2_ == (rec.value == 1 ? r_pow_index : fp::neg(r_pow_index));
  }

  /// If the summarized vector is exactly 1-sparse, returns its single
  /// entry; otherwise (w.h.p.) nullopt. `r` is the fingerprint base and
  /// `universe` bounds valid indices. Reference path: r^index by
  /// square-and-multiply (the engine verifies by table lookup instead,
  /// L0Sampler::sample(const PowerTable&)).
  [[nodiscard]] std::optional<Recovered> recover(std::uint64_t r,
                                                 std::uint64_t universe) const noexcept;

  [[nodiscard]] std::int64_t s0() const noexcept { return s0_; }
  [[nodiscard]] std::uint64_t s1() const noexcept { return s1_; }
  [[nodiscard]] std::uint64_t s2() const noexcept { return s2_; }

  /// Logical bits on the wire: two field elements + a small signed counter.
  [[nodiscard]] static std::uint64_t wire_bits(std::uint64_t universe) noexcept;

 private:
  std::int64_t s0_ = 0;
  std::uint64_t s1_ = 0;  // in F_p
  std::uint64_t s2_ = 0;  // in F_p
};

// The sketch plane relies on cells being exactly their 3-word wire image:
// L0Sampler::add_serialized walks message payloads three words at a time and
// arrays of cells add with contiguous, autovectorizable loops.
static_assert(sizeof(OneSparseCell) == 3 * sizeof(std::uint64_t) &&
                  std::is_trivially_copyable_v<OneSparseCell>,
              "OneSparseCell must stay a contiguous 3-word POD");

}  // namespace kmm
