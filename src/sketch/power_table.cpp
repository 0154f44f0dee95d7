#include "sketch/power_table.hpp"

#include <algorithm>
#include <array>
#include <bit>

#include "sketch/l0_sampler.hpp"

namespace kmm {

namespace {
constexpr int kMaxWindowBits = 9;
// Rows rebind() fills from the row this many back (see there).
constexpr std::size_t kLanes = 4;
}  // namespace

PowerTable::PowerTable(std::uint64_t universe, int copies)
    : universe_(universe), copies_(copies) {
  KMM_CHECK(universe >= 1 && copies >= 1 && copies <= L0Sampler::kMaxCopies);
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
  const std::size_t lanes = std::min(kLanes, width);
  std::array<std::uint64_t, L0Sampler::kMaxCopies> step{};  // r^(2^(w*d))
  std::array<std::uint64_t, L0Sampler::kMaxCopies> jump{};  // step^lanes
  for (int c = 0; c < copies_; ++c) step[c] = L0Sampler::fingerprint_base_for(seed, c);
  for (int d = 0; d < digits_; ++d) {
    // Row j of the digit is row j - lanes times step^lanes, for every copy:
    // copies × lanes independent multiply chains, so the field mults
    // overlap instead of each waiting on the one before.
    std::uint64_t* row = table_.data() + static_cast<std::size_t>(d) * width * stride;
    for (std::size_t c = 0; c < stride; ++c) row[c] = 1;
    for (std::size_t j = 1; j < lanes; ++j) {
      for (std::size_t c = 0; c < stride; ++c) {
        row[j * stride + c] = fp::mul(row[(j - 1) * stride + c], step[c]);
      }
    }
    for (std::size_t c = 0; c < stride; ++c) {
      jump[c] = fp::mul(row[(lanes - 1) * stride + c], step[c]);
    }
    for (std::size_t j = lanes; j < width; ++j) {
      for (std::size_t c = 0; c < stride; ++c) {
        row[j * stride + c] = fp::mul(row[(j - lanes) * stride + c], jump[c]);
      }
    }
    for (std::size_t c = 0; c < stride; ++c) {
      step[c] = fp::mul(row[(width - 1) * stride + c], step[c]);
    }
  }
}

}  // namespace kmm
