#include "util/crc64.hpp"

#include <array>
#include <bit>
#include <cstring>

namespace kmm {
namespace {

// Reflected form of the ECMA-182 polynomial 0x42F0E1EBA9EA3693.
constexpr std::uint64_t kPolyReflected = 0xC96C5795D7870F42ULL;

using Tables = std::array<std::array<std::uint64_t, 256>, 8>;

/// Slice-by-8 tables: kTables[0] is the classic byte table; kTables[j][b]
/// is the CRC of byte b followed by j zero bytes, so eight table lookups
/// fold one little-endian 64-bit word into the register at once.
constexpr Tables make_tables() {
  Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint64_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc & 1) ? (crc >> 1) ^ kPolyReflected : crc >> 1;
    }
    t[0][b] = crc;
  }
  for (std::size_t j = 1; j < 8; ++j) {
    for (std::size_t b = 0; b < 256; ++b) {
      t[j][b] = (t[j - 1][b] >> 8) ^ t[0][t[j - 1][b] & 0xFF];
    }
  }
  return t;
}

constexpr Tables kTables = make_tables();

/// a * b mod P over GF(2), both in the reflected bit order (bit 63 is x^0).
constexpr std::uint64_t mul_mod_p(std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t product = 0;
  for (int shift = 63; shift >= 0; --shift) {  // branch-free: a and b are data
    product ^= b & (0 - ((a >> shift) & 1));
    b = (b >> 1) ^ (kPolyReflected & (0 - (b & 1)));
  }
  return product;
}

/// x^(8 * bytes) mod P: multiplying a raw CRC register by it is the same as
/// feeding the register `bytes` zero bytes.
constexpr std::uint64_t zero_bytes_operator(std::size_t bytes) noexcept {
  std::uint64_t result = std::uint64_t{1} << 63;  // x^0
  std::uint64_t power = std::uint64_t{1} << 62;   // x^1, squared each step
  for (std::uint64_t e = 8 * std::uint64_t{bytes}; e != 0; e >>= 1) {
    if (e & 1) result = mul_mod_p(result, power);
    power = mul_mod_p(power, power);
  }
  return result;
}

// Long inputs run three slice-by-8 lanes over consecutive kLaneBytes spans
// at once: each lane's table lookups hide the others' load latency. The
// register update is linear, so the block's register is the first lane's
// (seeded with the running CRC) shifted past the other two, XOR the second
// (started from 0) shifted past the third, XOR the third.
constexpr std::size_t kLaneBytes = 4096;
constexpr std::uint64_t kPastOneLane = zero_bytes_operator(kLaneBytes);
constexpr std::uint64_t kPastTwoLanes = zero_bytes_operator(2 * kLaneBytes);

inline std::uint64_t fold_word(std::uint64_t crc, const unsigned char* bytes) noexcept {
  std::uint64_t word = 0;
  std::memcpy(&word, bytes, sizeof word);
  crc ^= word;
  return kTables[7][crc & 0xFF] ^ kTables[6][(crc >> 8) & 0xFF] ^
         kTables[5][(crc >> 16) & 0xFF] ^ kTables[4][(crc >> 24) & 0xFF] ^
         kTables[3][(crc >> 32) & 0xFF] ^ kTables[2][(crc >> 40) & 0xFF] ^
         kTables[1][(crc >> 48) & 0xFF] ^ kTables[0][crc >> 56];
}

}  // namespace

std::uint64_t crc64(const void* data, std::size_t len, std::uint64_t seed) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::uint64_t crc = ~seed;
  if constexpr (std::endian::native == std::endian::little) {
    for (; len >= 3 * kLaneBytes; len -= 3 * kLaneBytes, bytes += 3 * kLaneBytes) {
      std::uint64_t a = crc, b = 0, c = 0;
      for (std::size_t i = 0; i < kLaneBytes; i += 8) {
        a = fold_word(a, bytes + i);
        b = fold_word(b, bytes + kLaneBytes + i);
        c = fold_word(c, bytes + 2 * kLaneBytes + i);
      }
      crc = mul_mod_p(a, kPastTwoLanes) ^ mul_mod_p(b, kPastOneLane) ^ c;
    }
    for (; len >= 8; len -= 8, bytes += 8) crc = fold_word(crc, bytes);
  }
  for (; len > 0; --len, ++bytes) {
    crc = kTables[0][(crc ^ *bytes) & 0xFF] ^ (crc >> 8);
  }
  return ~crc;
}

}  // namespace kmm
