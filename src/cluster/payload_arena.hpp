#pragma once
// Bump arena for message payloads that don't fit inline in a Message.
//
// Chunked so allocation never moves existing data: alloc() hands out stable
// pointers valid until the next reset(), and reset() rewinds to the start
// while keeping every chunk's memory, so a warm arena allocates nothing in
// steady state. One generation of an arena backs one machine's spilled
// payloads for one superstep: the Runtime's outbox shard fills it, and the
// Cluster's delivery swaps it for the arena that held the previous
// delivery's payloads.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "util/assert.hpp"

namespace kmm {

class PayloadArena {
 public:
  /// Reserve `words` contiguous uint64s. The returned pointer is stable
  /// until reset() — chunks are never reallocated, only appended.
  [[nodiscard]] std::uint64_t* alloc(std::size_t words) {
    while (active_ < chunks_.size() && used_ + words > chunks_[active_].capacity) {
      ++active_;
      used_ = 0;
    }
    if (active_ == chunks_.size()) {
      const std::size_t cap = std::max(words, kChunkWords);
      chunks_.push_back(Chunk{std::make_unique<std::uint64_t[]>(cap), cap});
      used_ = 0;
    }
    std::uint64_t* p = chunks_[active_].data.get() + used_;
    used_ += words;
    return p;
  }

  /// Copy `words` into the arena and return the stable copy.
  [[nodiscard]] std::span<const std::uint64_t> intern(std::span<const std::uint64_t> words) {
    std::uint64_t* p = alloc(words.size());
    std::copy(words.begin(), words.end(), p);
    return {p, words.size()};
  }

  /// Rewind to empty, retaining all chunk memory for reuse. Invalidates
  /// every pointer previously returned by alloc().
  void reset() noexcept {
    active_ = 0;
    used_ = 0;
  }

  /// Whether `p` points into one of this arena's chunks (diagnostics only).
  [[nodiscard]] bool owns(const std::uint64_t* p) const noexcept {
    const std::less<const std::uint64_t*> before;
    return std::any_of(chunks_.begin(), chunks_.end(), [&](const Chunk& c) {
      return !before(p, c.data.get()) && before(p, c.data.get() + c.capacity);
    });
  }

  /// Words of chunk capacity currently held (diagnostics only).
  [[nodiscard]] std::size_t capacity_words() const noexcept {
    std::size_t total = 0;
    for (const auto& c : chunks_) total += c.capacity;
    return total;
  }

 private:
  static constexpr std::size_t kChunkWords = 1 << 12;  // 32 KiB chunks

  struct Chunk {
    std::unique_ptr<std::uint64_t[]> data;
    std::size_t capacity;
  };

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  // chunk currently being filled
  std::size_t used_ = 0;    // words used in chunks_[active_]
};

}  // namespace kmm
