// Error metrics and distribution statistics shared by the compressors, the
// error-bound property tests, and the experiment harnesses.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace deepsz::util {

/// Summary statistics of a float array.
struct Summary {
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double stddev = 0.0;
  std::size_t count = 0;

  double range() const { return max - min; }
};

/// One-pass min/max/mean/stddev.
Summary summarize(std::span<const float> x);

/// Maximum absolute pointwise error between original and reconstruction.
/// This is the quantity SZ's ABS mode bounds.
double max_abs_error(std::span<const float> a, std::span<const float> b);

/// Root-mean-square error.
double rmse(std::span<const float> a, std::span<const float> b);

/// Peak signal-to-noise ratio in dB, using the value range of `a` as peak.
/// Returns +inf for identical arrays.
double psnr(std::span<const float> a, std::span<const float> b);

/// Shannon entropy in bits/symbol of a byte stream; upper-bounds what any
/// order-0 entropy coder (our Huffman stages) can achieve.
double byte_entropy(std::span<const std::uint8_t> data);

/// Shannon entropy in bits/symbol of an arbitrary symbol histogram.
double histogram_entropy(std::span<const std::uint64_t> counts);

/// Fixed-bucket histogram for latency/size distributions (obs::Tracer's
/// stage histograms, ServerMetrics' rows per batch, the benches). Bucket i
/// covers [bounds[i-1], bounds[i]) with an implicit lower edge of 0; values
/// >= bounds.back() land in an overflow bucket. Not thread-safe — callers
/// that share one instance must lock, or keep per-thread histograms and
/// merge().
class Histogram {
 public:
  /// `upper_bounds` must be non-empty, strictly increasing, and positive.
  /// Throws std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> upper_bounds);

  /// `count` log-spaced buckets: first, first*factor, first*factor^2, ...
  /// (the shape Prometheus calls an exponential histogram).
  static Histogram exponential(double first, double factor, int count);

  void record(double value);
  /// Adds `other`'s observations into this histogram. Throws
  /// std::invalid_argument when the bucket bounds differ.
  void merge(const Histogram& other);
  void reset();

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double min() const;  // 0 when empty
  double max() const;  // 0 when empty
  double mean() const;

  /// Quantile estimate for q in [0, 1]: locates the bucket holding the
  /// q-th observation and interpolates linearly inside it, clamped to the
  /// observed [min, max]. Exact for the extremes; bucket-resolution
  /// accurate in between. Returns 0 when empty.
  double quantile(double q) const;

  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; one longer than bounds() (overflow bucket last).
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace deepsz::util
