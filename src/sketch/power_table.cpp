#include "sketch/power_table.hpp"

#include <algorithm>
#include <bit>

#include "sketch/l0_sampler.hpp"

namespace kmm {

namespace {
constexpr int kMaxWindowBits = 9;
}  // namespace

PowerTable::PowerTable(std::uint64_t universe, int copies)
    : universe_(universe), copies_(copies) {
  KMM_CHECK(universe >= 1 && copies >= 1);
  const int bits = std::max(1, static_cast<int>(std::bit_width(universe - 1)));
  digits_ = (bits + kMaxWindowBits - 1) / kMaxWindowBits;
  window_ = (bits + digits_ - 1) / digits_;
  mask_ = (std::uint64_t{1} << window_) - 1;
  table_.resize((static_cast<std::size_t>(digits_) << window_) *
                static_cast<std::size_t>(copies_));
}

void PowerTable::rebind(std::uint64_t seed) {
  seed_ = seed;
  const std::size_t stride = static_cast<std::size_t>(copies_);
  const std::size_t width = std::size_t{1} << window_;
  for (int c = 0; c < copies_; ++c) {
    // step = r^(2^(w*d)) for the digit being filled.
    std::uint64_t step = L0Sampler::fingerprint_base_for(seed, c);
    for (int d = 0; d < digits_; ++d) {
      std::uint64_t* col = table_.data() + static_cast<std::size_t>(d) * width * stride +
                           static_cast<std::size_t>(c);
      std::uint64_t acc = 1;
      for (std::size_t j = 0; j < width; ++j) {
        col[j * stride] = acc;
        acc = fp::mul(acc, step);
      }
      step = acc;
    }
  }
}

}  // namespace kmm
