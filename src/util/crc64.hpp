#pragma once
// CRC-64/XZ (ECMA-182 polynomial, reflected) — the integrity check behind
// every durable on-disk artifact (checkpoint frames, the query journal).
// Slice-by-8: eight bytes per step through eight 256-entry tables built at
// compile time, run as three interleaved lanes on inputs of 12 KiB and up
// (joined exactly by GF(2) shifts), with a byte-at-a-time tail; big-endian
// hosts take the byte loop throughout. Every path yields the same value.
// The byte-order of the input is the byte-order of the words as laid out
// in memory, so a checksum computed by the writing process verifies in the
// restarted one on the same architecture — which is the only restart the
// durable plane promises (a checkpoint directory is not a portable
// interchange format).

#include <cstddef>
#include <cstdint>
#include <span>

namespace kmm {

/// CRC-64/XZ over `len` bytes. `seed` chains partial computations:
/// crc64(ab) == crc64(b, len_b, crc64(a, len_a)).
[[nodiscard]] std::uint64_t crc64(const void* data, std::size_t len,
                                  std::uint64_t seed = 0) noexcept;

/// Checksum of a word span viewed as bytes (the durable frame layout).
[[nodiscard]] inline std::uint64_t crc64_words(
    std::span<const std::uint64_t> words, std::uint64_t seed = 0) noexcept {
  return crc64(words.data(), words.size() * sizeof(std::uint64_t), seed);
}

}  // namespace kmm
