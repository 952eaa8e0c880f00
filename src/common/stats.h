// Small statistics helpers used by the simulator and benches.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace cpt {

// Running mean / min / max / variance over a stream of samples.  Variance
// uses Welford's online update, so long timing streams stay numerically
// stable.
class RunningStats {
 public:
  void Add(double x) {
    ++n_;
    sum_ += x;
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
  }

  // Folds another stream's summary into this one (parallel Welford / Chan
  // combine).  Equivalent to having Add()ed the other stream's samples here,
  // up to floating-point rounding: counts and sums are exact, mean/m2 use the
  // pairwise update so variance stays stable even when the two streams have
  // very different magnitudes.  Merging partial streams in a fixed order
  // yields a deterministic result for deterministic inputs.
  void Merge(const RunningStats& other);

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  double min() const { return n_ == 0 ? 0.0 : min_; }
  double max() const { return n_ == 0 ? 0.0 : max_; }
  // Population variance; 0 for fewer than two samples.
  double variance() const { return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_); }
  double stddev() const { return std::sqrt(variance()); }

 private:
  std::uint64_t n_ = 0;
  double sum_ = 0.0;
  double min_ = 1e300;
  double max_ = -1e300;
  double mean_ = 0.0;
  double m2_ = 0.0;
};

// Histogram over small non-negative integer values (e.g. hash-chain lengths,
// cache lines per walk).  Bucket storage is clamped at `max_buckets`: one
// corrupted sample (a bogus chain length, a wild timing value) must not
// allocate gigabytes.  Out-of-range samples are folded into an overflow
// bucket that still contributes to total() and mean().
class Histogram {
 public:
  static constexpr std::size_t kDefaultMaxBuckets = 4096;

  explicit Histogram(std::size_t max_buckets = kDefaultMaxBuckets)
      : max_buckets_(std::max<std::size_t>(max_buckets, 1)) {}

  void Add(std::size_t value) {
    ++total_;
    if (value >= max_buckets_) {
      ++overflow_;
      overflow_sum_ += value;
      max_seen_ = std::max(max_seen_, value);
      return;
    }
    if (value >= counts_.size()) {
      // Within capacity after Reserve() this is a size bump, not an
      // allocation; growth is clamped at max_buckets_ either way.
      counts_.resize(value + 1, 0);
    }
    ++counts_[value];
    max_seen_ = std::max(max_seen_, value);
  }

  // Pre-allocates bucket storage for values below `n`, so steady-state
  // Add() calls stay off the heap (hot-path discipline: the per-walk
  // histogram in mem/cache_model.h is fed from inside counted walks, under
  // cpt::HotPathScope in tests).  Semantics are untouched — buckets still
  // materialize lazily via resize, but within reserved capacity.
  void Reserve(std::size_t n) { counts_.reserve(std::min(n, max_buckets_)); }

  // Folds another histogram into this one bucket-by-bucket.  Buckets the
  // other histogram resolved but this one clamps (a smaller max_buckets_
  // here) fold into this histogram's overflow bucket, preserving total()
  // and mean() exactly.
  void Merge(const Histogram& other);

  std::uint64_t total() const { return total_; }
  std::uint64_t count(std::size_t value) const {
    return value < counts_.size() ? counts_[value] : 0;
  }
  // Largest bucketed value (overflow samples excluded; see max_seen()).
  std::size_t max_value() const { return counts_.empty() ? 0 : counts_.size() - 1; }
  // Largest value ever offered to Add(), overflow included.
  std::size_t max_seen() const { return max_seen_; }
  std::size_t max_buckets() const { return max_buckets_; }
  // Samples >= max_buckets(), kept out of the bucket array.
  std::uint64_t overflow() const { return overflow_; }

  double mean() const {
    if (total_ == 0) {
      return 0.0;
    }
    double s = static_cast<double>(overflow_sum_);
    for (std::size_t v = 0; v < counts_.size(); ++v) {
      s += static_cast<double>(v) * static_cast<double>(counts_[v]);
    }
    return s / static_cast<double>(total_);
  }

  std::string ToString() const;

 private:
  std::size_t max_buckets_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t total_ = 0;
  std::uint64_t overflow_ = 0;
  std::uint64_t overflow_sum_ = 0;
  std::size_t max_seen_ = 0;
};

// Formats byte counts the way the paper's tables do (KB with no decimals
// above 1KB).
std::string FormatBytes(std::uint64_t bytes);

}  // namespace cpt
