#include "sketch/one_sparse.hpp"

#include "util/assert.hpp"
#include "util/codec.hpp"

namespace kmm {

void OneSparseCell::update(std::uint64_t index, int value, std::uint64_t r_pow_index) noexcept {
  // value is ±1 by construction of incidence vectors.
  if (value > 0) {
    ++s0_;
    s1_ = fp::add(s1_, fp::reduce(index));
    s2_ = fp::add(s2_, r_pow_index);
  } else {
    --s0_;
    s1_ = fp::sub(s1_, fp::reduce(index));
    s2_ = fp::sub(s2_, r_pow_index);
  }
}

void OneSparseCell::add(const OneSparseCell& other) noexcept {
  s0_ += other.s0_;
  s1_ = fp::add(s1_, other.s1_);
  s2_ = fp::add(s2_, other.s2_);
}

std::optional<Recovered> OneSparseCell::recover(std::uint64_t r,
                                                std::uint64_t universe) const noexcept {
  const auto rec = candidate(universe);
  if (!rec || !verifies(*rec, fp::pow(r, rec->index))) return std::nullopt;
  return rec;
}

std::uint64_t OneSparseCell::wire_bits(std::uint64_t universe) noexcept {
  // s1, s2: field elements (61 bits each); s0: signed counter bounded by
  // the universe size.
  return 61 + 61 + bits_for(2 * universe + 1) + 1;
}

}  // namespace kmm
