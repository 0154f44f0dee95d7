#include "util/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "util/assert.hpp"

namespace kmm {

void Accumulator::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double Accumulator::variance() const noexcept {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double Accumulator::stddev() const noexcept { return std::sqrt(variance()); }

std::array<std::uint64_t, Accumulator::kSerializedWords> Accumulator::serialize()
    const noexcept {
  return {n_,
          std::bit_cast<std::uint64_t>(mean_),
          std::bit_cast<std::uint64_t>(m2_),
          std::bit_cast<std::uint64_t>(min_),
          std::bit_cast<std::uint64_t>(max_),
          std::bit_cast<std::uint64_t>(sum_)};
}

void Accumulator::restore(std::span<const std::uint64_t> words) noexcept {
  KMM_CHECK(words.size() == kSerializedWords);
  n_ = words[0];
  mean_ = std::bit_cast<double>(words[1]);
  m2_ = std::bit_cast<double>(words[2]);
  min_ = std::bit_cast<double>(words[3]);
  max_ = std::bit_cast<double>(words[4]);
  sum_ = std::bit_cast<double>(words[5]);
}

Histogram::Histogram(double limit, int buckets) : limit_(limit) {
  KMM_CHECK(limit > 0 && buckets > 0);
  counts_.assign(static_cast<std::size_t>(buckets) + 1, 0);
}

void Histogram::add(double x) noexcept {
  const int nb = static_cast<int>(counts_.size()) - 1;
  int b = x < 0 ? 0 : static_cast<int>(x / limit_ * nb);
  if (b >= nb) b = nb;  // overflow bucket
  ++counts_[static_cast<std::size_t>(b)];
  ++total_;
}

std::uint64_t Histogram::bucket_count(int b) const {
  KMM_CHECK(b >= 0 && b < static_cast<int>(counts_.size()));
  return counts_[static_cast<std::size_t>(b)];
}

std::string Histogram::render(int width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  const int nb = static_cast<int>(counts_.size());
  char line[160];
  for (int b = 0; b < nb; ++b) {
    const double lo = limit_ * b / (nb - 1);
    const int bar = static_cast<int>(static_cast<double>(counts_[static_cast<std::size_t>(b)]) /
                                     static_cast<double>(peak) * width);
    std::snprintf(line, sizeof line, "%10.2f |%-*s| %llu\n", lo, width,
                  std::string(static_cast<std::size_t>(bar), '#').c_str(),
                  static_cast<unsigned long long>(counts_[static_cast<std::size_t>(b)]));
    out += line;
  }
  return out;
}

double loglog_slope(const std::vector<double>& x, const std::vector<double>& y) {
  KMM_CHECK(x.size() == y.size() && x.size() >= 2);
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (x[i] <= 0 || y[i] <= 0) continue;  // skip degenerate points
    const double lx = std::log(x[i]), ly = std::log(y[i]);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
    ++n;
  }
  KMM_CHECK(n >= 2);
  const double dn = static_cast<double>(n);
  return (dn * sxy - sx * sy) / (dn * sxx - sx * sx);
}

double correlation(const std::vector<double>& x, const std::vector<double>& y) {
  KMM_CHECK(x.size() == y.size() && !x.empty());
  Accumulator ax, ay;
  for (double v : x) ax.add(v);
  for (double v : y) ay.add(v);
  double cov = 0;
  for (std::size_t i = 0; i < x.size(); ++i) cov += (x[i] - ax.mean()) * (y[i] - ay.mean());
  cov /= static_cast<double>(x.size());
  const double denom = ax.stddev() * ay.stddev();
  return denom == 0 ? 0.0 : cov / denom;
}

double quantile(std::vector<double> values, double p) {
  KMM_CHECK(!values.empty() && p >= 0.0 && p <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

}  // namespace kmm
