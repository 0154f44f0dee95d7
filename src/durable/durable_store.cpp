#include "durable/durable_store.hpp"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/assert.hpp"
#include "util/atomic_file.hpp"

namespace kmm {
namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_ns(Clock::time_point from, Clock::time_point to) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count());
}

constexpr char kGenPrefix[] = "gen-";
constexpr char kGenSuffix[] = ".kmmframe";

/// Parse "gen-<20 digits>.kmmframe" -> ordinal. Anything else is not a
/// generation file.
bool parse_generation_name(const char* name, std::uint64_t& ordinal) {
  const std::size_t prefix_len = sizeof(kGenPrefix) - 1;
  const std::size_t suffix_len = sizeof(kGenSuffix) - 1;
  const std::size_t len = std::strlen(name);
  if (len != prefix_len + 20 + suffix_len) return false;
  if (std::strncmp(name, kGenPrefix, prefix_len) != 0) return false;
  if (std::strcmp(name + prefix_len + 20, kGenSuffix) != 0) return false;
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < 20; ++i) {
    const char c = name[prefix_len + i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  ordinal = value;
  return true;
}

}  // namespace

std::string DurableStore::generation_path(const std::string& dir, std::uint64_t ordinal) {
  char name[48];
  std::snprintf(name, sizeof name, "%s%020llu%s", kGenPrefix,
                static_cast<unsigned long long>(ordinal), kGenSuffix);
  return dir + "/" + name;
}

Expected<std::vector<std::pair<std::uint64_t, std::string>>, DurableError>
DurableStore::list_generations(const std::string& dir) {
  using Result = Expected<std::vector<std::pair<std::uint64_t, std::string>>, DurableError>;
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) {
    return Result::err({DurableErrorCode::kIo,
                        "opendir failed: " + std::string(std::strerror(errno)), dir});
  }
  std::vector<std::pair<std::uint64_t, std::string>> found;
  while (const dirent* entry = ::readdir(d)) {
    std::uint64_t ordinal = 0;
    if (parse_generation_name(entry->d_name, ordinal)) {
      found.emplace_back(ordinal, dir + "/" + entry->d_name);
    }
  }
  ::closedir(d);
  std::sort(found.begin(), found.end());
  return Result(std::move(found));
}

DurableStore::DurableStore(DurableStoreConfig config) : config_(std::move(config)) {
  std::string error;
  KMM_CHECK_MSG(ensure_directory(config_.dir, &error),
                "durable store directory could not be created");
  if (config_.keep_generations == 0) config_.keep_generations = 1;
  auto existing = list_generations(config_.dir);
  if (existing.ok()) {
    for (const auto& [ordinal, path] : existing.value()) on_disk_.push_back(ordinal);
  }
}

Expected<std::uint64_t, DurableError> DurableStore::commit(FrameView view) {
  using Result = Expected<std::uint64_t, DurableError>;
  const auto t0 = Clock::now();
  view.fingerprint = config_.fingerprint;
  const std::size_t words = encoded_frame_words(view);
  if (buffer_.size() < words) buffer_.resize(words);
  encode_frame(view, std::span<std::uint64_t>(buffer_).first(words));
  const auto t1 = Clock::now();
  const std::size_t bytes = words * sizeof(std::uint64_t);
  const std::string path = generation_path(config_.dir, view.ordinal);
  std::string error;
  if (!atomic_write_file(path, buffer_.data(), bytes, config_.fsync, &error)) {
    return Result::err({DurableErrorCode::kIo, std::move(error), path});
  }
  if (!std::binary_search(on_disk_.begin(), on_disk_.end(), view.ordinal)) {
    on_disk_.insert(std::upper_bound(on_disk_.begin(), on_disk_.end(), view.ordinal),
                    view.ordinal);
  }
  ++stats_.commits;
  stats_.bytes_written += bytes;
  prune();
  stats_.encode_ns += elapsed_ns(t0, t1);
  stats_.io_ns += elapsed_ns(t1, Clock::now());
  return Result(static_cast<std::uint64_t>(bytes));
}

void DurableStore::prune() {
  while (on_disk_.size() > config_.keep_generations) {
    const std::uint64_t victim = on_disk_.front();
    // Unlink failure is non-fatal (the file may already be gone); the
    // ordinal leaves the ledger either way so pruning cannot wedge.
    ::unlink(generation_path(config_.dir, victim).c_str());
    on_disk_.erase(on_disk_.begin());
    ++stats_.pruned;
  }
}

}  // namespace kmm
