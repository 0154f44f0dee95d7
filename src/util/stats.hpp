#pragma once
// Small statistics toolkit used by the benchmark harness and by tests that
// assert distributional properties (load balance, DRR depth, sketch
// uniformity).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace kmm {

/// Streaming summary: count / mean / min / max / variance (Welford).
class Accumulator {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const noexcept;  // population variance
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double sum() const noexcept { return sum_; }

  /// Bit-exact persistence for the durable checkpoint plane: the Welford
  /// running state (count + five doubles, bit_cast to words) round-trips
  /// exactly, so an accumulator restored from a frame continues the SAME
  /// floating-point trajectory as the uninterrupted run.
  static constexpr std::size_t kSerializedWords = 6;
  [[nodiscard]] std::array<std::uint64_t, kSerializedWords> serialize() const noexcept;
  void restore(std::span<const std::uint64_t> words) noexcept;  // exactly kSerializedWords

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0, m2_ = 0.0, min_ = 0.0, max_ = 0.0, sum_ = 0.0;
};

/// Fixed-bucket histogram over [0, limit) with overflow bucket.
class Histogram {
 public:
  Histogram(double limit, int buckets);
  void add(double x) noexcept;
  [[nodiscard]] std::uint64_t bucket_count(int b) const;
  [[nodiscard]] int buckets() const noexcept { return static_cast<int>(counts_.size()); }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::string render(int width = 40) const;

 private:
  double limit_;
  std::vector<std::uint64_t> counts_;  // last bucket = overflow
  std::uint64_t total_ = 0;
};

/// Least-squares slope of log(y) against log(x); used to fit empirical
/// round counts to the predicted n/k^2 (slope ≈ -2 in k) or log n shapes.
[[nodiscard]] double loglog_slope(const std::vector<double>& x, const std::vector<double>& y);

/// Pearson correlation of (x, y).
[[nodiscard]] double correlation(const std::vector<double>& x, const std::vector<double>& y);

/// Exact p-quantile (by sorting a copy); p in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double p);

}  // namespace kmm
