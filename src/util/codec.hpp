#pragma once
// Word-level payload codec for simulator messages.
//
// Algorithms serialize their message structs into vectors of 64-bit words;
// senders additionally declare the *logical* bit width of the payload so the
// bandwidth ledger charges what a real wire format would carry (e.g. a
// sketch cell is 61 bits, a vertex id is ceil(log2 n) bits).

#include <cstdint>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace kmm {

class WordWriter {
 public:
  WordWriter& u64(std::uint64_t v) {
    words_.push_back(v);
    return *this;
  }
  WordWriter& u32(std::uint32_t v) { return u64(v); }

  /// Pre-size for a known batch of u64() calls (serializers that know their
  /// word count up front, e.g. a sketch's cells).
  void reserve(std::size_t total_words) { words_.reserve(total_words); }

  /// Append `count` words for the caller to fill in place (encoders that
  /// know their exact size up front); returns the writable tail.
  [[nodiscard]] std::span<std::uint64_t> extend(std::size_t count) {
    words_.resize(words_.size() + count);
    return std::span<std::uint64_t>(words_).last(count);
  }

  /// View of the serialized words — the form senders pass to Outbox::send,
  /// which copies, so the writer may be clear()ed and reused right after.
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Reset for reuse, retaining capacity: a per-machine WordWriter that is
  /// cleared between messages serializes allocation-free in steady state.
  void clear() noexcept { words_.clear(); }

  [[nodiscard]] std::vector<std::uint64_t> take() && { return std::move(words_); }
  [[nodiscard]] std::size_t size() const noexcept { return words_.size(); }

 private:
  std::vector<std::uint64_t> words_;
};

class WordReader {
 public:
  explicit WordReader(std::span<const std::uint64_t> words) noexcept : words_(words) {}

  [[nodiscard]] std::uint64_t u64() {
    KMM_CHECK_MSG(pos_ < words_.size(), "payload underrun");
    return words_[pos_++];
  }
  [[nodiscard]] std::uint32_t u32() { return static_cast<std::uint32_t>(u64()); }

  /// Consume `count` words as one contiguous view — a single bounds check
  /// for batch readers (wire-level sketch merging reads 3 words per cell).
  [[nodiscard]] std::span<const std::uint64_t> span(std::size_t count) {
    KMM_CHECK_MSG(count <= words_.size() - pos_, "payload underrun");
    const auto view = words_.subspan(pos_, count);
    pos_ += count;
    return view;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == words_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept { return words_.size() - pos_; }

 private:
  std::span<const std::uint64_t> words_;
  std::size_t pos_ = 0;
};

/// Bits needed to address a universe of `universe` values (>= 1).
[[nodiscard]] constexpr std::uint64_t bits_for(std::uint64_t universe) noexcept {
  std::uint64_t bits = 1;
  while ((1ULL << bits) < universe && bits < 63) ++bits;
  return bits;
}

}  // namespace kmm
