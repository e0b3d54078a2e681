#include "common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gcopss {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::variance() const {
  return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::ci95HalfWidth() const {
  if (n_ < 2) return 0.0;
  return 1.96 * stddev() / std::sqrt(static_cast<double>(n_));
}

void SampleSet::ensureSorted() const {
  if (!sorted_) {
    auto& s = const_cast<std::vector<double>&>(samples_);
    std::sort(s.begin(), s.end());
    sorted_ = true;
  }
}

double SampleSet::mean() const {
  if (samples_.empty()) return 0.0;
  double sum = 0.0;
  for (double x : samples_) sum += x;
  return sum / static_cast<double>(samples_.size());
}

double SampleSet::min() const {
  ensureSorted();
  return samples_.empty() ? 0.0 : samples_.front();
}

double SampleSet::max() const {
  ensureSorted();
  return samples_.empty() ? 0.0 : samples_.back();
}

double SampleSet::percentile(double q) const {
  assert(q >= 0.0 && q <= 1.0);
  if (samples_.empty()) return 0.0;
  ensureSorted();
  const double pos = q * static_cast<double>(samples_.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const double frac = pos - static_cast<double>(lo);
  if (lo + 1 >= samples_.size()) return samples_.back();
  return samples_[lo] * (1.0 - frac) + samples_[lo + 1] * frac;
}

std::vector<std::pair<double, double>> SampleSet::cdfPoints(std::size_t points) const {
  std::vector<std::pair<double, double>> out;
  if (samples_.empty() || points == 0) return out;
  ensureSorted();
  out.reserve(points);
  for (std::size_t i = 0; i < points; ++i) {
    const double q = static_cast<double>(i + 1) / static_cast<double>(points);
    out.emplace_back(percentile(q), q);
  }
  return out;
}

}  // namespace gcopss
