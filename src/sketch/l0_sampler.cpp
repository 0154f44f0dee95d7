#include "sketch/l0_sampler.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/prime_field.hpp"

namespace kmm {

L0Params L0Params::for_universe(std::uint64_t universe, int copies) {
  L0Params p;
  p.copies = copies;
  p.levels = 2;
  while ((1ULL << p.levels) < universe && p.levels < 62) ++p.levels;
  p.levels += 2;  // slack so sparse tails still isolate single items
  return p;
}

L0Sampler::L0Sampler(std::uint64_t universe, L0Params params, std::uint64_t seed)
    : universe_(universe), params_(params), seed_(seed) {
  KMM_CHECK(universe >= 1 && params.levels >= 1 && params.copies >= 1);
  KMM_CHECK_MSG(params.copies <= kMaxCopies, "l0 sampler supports at most kMaxCopies copies");
  cells_.resize(static_cast<std::size_t>(params_.cells()));
  bind_seed(seed);
}

void L0Sampler::bind_seed(std::uint64_t seed) noexcept {
  seed_ = seed;
  for (int c = 0; c < params_.copies; ++c) {
    level_seed_[static_cast<std::size_t>(c)] =
        split3(seed_, 0x1e7e, static_cast<std::uint64_t>(c));
  }
}

std::uint64_t L0Sampler::fingerprint_base(int copy) const {
  return fingerprint_base_for(seed_, copy);
}

std::uint64_t L0Sampler::fingerprint_base_for(std::uint64_t seed, int copy) {
  // Nonzero field element derived from the shared seed.
  return 2 + split3(seed, 0xf1a9, static_cast<std::uint64_t>(copy)) % (kMersenne61 - 2);
}

int L0Sampler::level_of(std::uint64_t index, int copy) const {
  const std::uint64_t h = split(level_seed(copy), index);
  return geometric_level(h, params_.levels - 1);
}

void L0Sampler::update(std::uint64_t index, int value,
                       const std::uint64_t* r_pow_index_per_copy) {
  KMM_CHECK_MSG(index < universe_, "l0 update outside universe");
  KMM_CHECK_MSG(value == 1 || value == -1, "l0 values must be +-1");
  for (int c = 0; c < params_.copies; ++c) {
    const int top = level_of(index, c);
    const std::uint64_t rp = r_pow_index_per_copy[c];
    OneSparseCell* cells = copy_cells(c);
    for (int l = 0; l <= top; ++l) cells[l].update(index, value, rp);
    used(c) = std::max(used(c), top + 1);
  }
}

void L0Sampler::update(std::uint64_t index, int value) {
  std::array<std::uint64_t, kMaxCopies> powers{};
  for (int c = 0; c < params_.copies; ++c) {
    powers[static_cast<std::size_t>(c)] = fp::pow(fingerprint_base(c), index);
  }
  update(index, value, powers.data());
}

void L0Sampler::add(const L0Sampler& other) {
  KMM_CHECK_MSG(universe_ == other.universe_ && seed_ == other.seed_ &&
                    params_.levels == other.params_.levels &&
                    params_.copies == other.params_.copies,
                "cannot combine sketches with different construction");
  for (int c = 0; c < params_.copies; ++c) {
    OneSparseCell* cells = copy_cells(c);
    const OneSparseCell* theirs = other.copy_cells(c);
    for (int l = 0; l < other.used(c); ++l) cells[l].add(theirs[l]);
    used(c) = std::max(used(c), other.used(c));
  }
}

bool L0Sampler::add_serialized(WordReader& reader) {
  // Validate the whole payload on a probe before touching a cell, so a
  // malformed one leaves both the accumulator and `reader` as they were.
  WordReader probe = reader;
  const auto copies = static_cast<std::size_t>(params_.copies);
  if (probe.remaining() < copies) return false;
  const std::uint64_t* lengths = probe.span(copies).data();
  std::size_t body_cells = 0;
  for (std::size_t c = 0; c < copies; ++c) {
    if (lengths[c] > static_cast<std::uint64_t>(params_.levels)) return false;
    body_cells += static_cast<std::size_t>(lengths[c]);
  }
  if (probe.remaining() / 3 < body_cells) return false;
  const std::uint64_t* words = probe.span(3 * body_cells).data();
  reader = probe;

  for (int c = 0; c < params_.copies; ++c) {
    const int len = static_cast<int>(lengths[static_cast<std::size_t>(c)]);
    OneSparseCell* cells = copy_cells(c);
    for (int l = 0; l < len; ++l) {
      cells[l].add_raw(static_cast<std::int64_t>(words[0]), words[1], words[2]);
      words += 3;
    }
    used(c) = std::max(used(c), len);
  }
  return true;
}

void L0Sampler::reset(std::uint64_t seed) noexcept {
  bind_seed(seed);
  // Cells past each used prefix are already zero.
  for (int c = 0; c < params_.copies; ++c) {
    OneSparseCell* cells = copy_cells(c);
    std::fill(cells, cells + used(c), OneSparseCell{});
    used(c) = 0;
  }
}

std::optional<Recovered> L0Sampler::sample(const PowerTable& powers) const {
  KMM_DCHECK(powers.seed() == seed_ && powers.universe() == universe_ &&
             powers.copies() == params_.copies);
  // Scan levels from the full vector downward in sampling rate; the first
  // verified 1-sparse cell yields the sample. Copies give independence.
  // Zero cells never recover, so each copy's scan stops at its used prefix.
  for (int c = 0; c < params_.copies; ++c) {
    const OneSparseCell* cells = copy_cells(c);
    for (int l = 0; l < used(c); ++l) {
      const auto rec = cells[l].candidate(universe_);
      if (rec && cells[l].verifies(*rec, powers.power(rec->index, c))) return rec;
    }
  }
  return std::nullopt;
}

std::optional<Recovered> L0Sampler::sample() const {
  for (int c = 0; c < params_.copies; ++c) {
    const std::uint64_t r = fingerprint_base(c);
    const OneSparseCell* cells = copy_cells(c);
    for (int l = 0; l < used(c); ++l) {
      if (auto rec = cells[l].recover(r, universe_)) return rec;
    }
  }
  return std::nullopt;
}

bool L0Sampler::is_zero() const {
  // Level 0 of each copy sees every index; its fingerprint s2 is a random
  // polynomial evaluation, nonzero w.h.p. for nonzero vectors.
  for (int c = 0; c < params_.copies; ++c) {
    const OneSparseCell& level0 = copy_cells(c)[0];
    if (level0.s2() != 0 || level0.s0() != 0) return false;
  }
  return true;
}

std::uint64_t L0Sampler::wire_bits() const {
  return static_cast<std::uint64_t>(params_.cells()) * OneSparseCell::wire_bits(universe_);
}

void L0Sampler::serialize(WordWriter& out) const {
  out.reserve(out.size() + max_wire_words());
  // Trim trailing all-zero cells (cancellations) so the form is canonical.
  std::array<int, kMaxCopies> lengths{};
  for (int c = 0; c < params_.copies; ++c) {
    const OneSparseCell* cells = copy_cells(c);
    int len = used(c);
    while (len > 0 && cells[len - 1].all_zero()) --len;
    lengths[static_cast<std::size_t>(c)] = len;
    out.u64(static_cast<std::uint64_t>(len));
  }
  for (int c = 0; c < params_.copies; ++c) {
    const OneSparseCell* cells = copy_cells(c);
    for (int l = 0; l < lengths[static_cast<std::size_t>(c)]; ++l) {
      out.u64(static_cast<std::uint64_t>(cells[l].s0()));
      out.u64(cells[l].s1());
      out.u64(cells[l].s2());
    }
  }
}

L0Sampler L0Sampler::deserialize(std::uint64_t universe, L0Params params, std::uint64_t seed,
                                 WordReader& reader) {
  L0Sampler s(universe, params, seed);
  KMM_CHECK_MSG(s.add_serialized(reader), "malformed l0 sketch payload");
  return s;
}

}  // namespace kmm
