#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace gcopss {

// Streaming moments (Welford) plus min/max. Cheap enough to keep per-metric.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double variance() const;  // sample variance
  double stddev() const;
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  // Half-width of the 95% confidence interval of the mean (normal approx).
  double ci95HalfWidth() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

// Sample container for quantiles/CDFs. Stores every sample; fine for the
// experiment sizes in this repo (millions of doubles).
class SampleSet {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }
  void reserve(std::size_t n) { samples_.reserve(n); }
  std::size_t count() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  double mean() const;
  double min() const;
  double max() const;
  // q in [0,1]; linear interpolation between order statistics.
  double percentile(double q) const;

  // Evenly spaced CDF points (value, cumulative fraction) for plotting.
  std::vector<std::pair<double, double>> cdfPoints(std::size_t points = 50) const;

  const std::vector<double>& samples() const { return samples_; }

 private:
  void ensureSorted() const;
  std::vector<double> samples_;
  mutable bool sorted_ = false;
};

}  // namespace gcopss
