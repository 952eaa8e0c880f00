// Tests for common utilities: deterministic RNG, bucket hashing, and the
// statistics helpers (including the merge combines).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "common/stats.h"
#include "workload/workload.h"

namespace cpt {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, DeterministicPerSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  Rng c(43);
  bool any_diff = false;
  Rng a2(42);
  for (int i = 0; i < 100; ++i) {
    any_diff |= a2.Next() != c.Next();
  }
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, BelowStaysInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t v = rng.Range(5, 8);
    EXPECT_GE(v, 5u);
    EXPECT_LE(v, 8u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BurstLengthHasRequestedMean) {
  Rng rng(11);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    sum += static_cast<double>(rng.BurstLength(16.0));
  }
  EXPECT_NEAR(sum / n, 16.0, 1.0);
}

TEST(RngTest, BurstLengthIsAtLeastOne) {
  Rng rng(12);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.BurstLength(0.1), 1u);
  }
}

// Chance(p) compares the draw's top 53 bits with ChanceThreshold(p); it must
// return exactly what `NextDouble() < p` returned, draw for draw.
TEST(RngTest, ChanceEqualsDoubleCompare) {
  const double kProbes[] = {0.0,
                            -0.0,
                            std::numeric_limits<double>::denorm_min(),
                            1.0 / 3.0,
                            0.5,
                            1.0 - 0x1.0p-53,
                            1.0,
                            1.5,
                            std::numeric_limits<double>::infinity(),
                            -1.0,
                            std::numeric_limits<double>::quiet_NaN()};
  Rng a(21);
  Rng b(21);
  Rng pick(22);
  std::vector<double> probes(std::begin(kProbes), std::end(kProbes));
  for (int i = 0; i < 200; ++i) {
    probes.push_back(pick.NextDouble());
    // A p on the 2^-53 grid: the draw equal to it must compare false.
    probes.push_back(static_cast<double>(pick.Next() >> 11) * 0x1.0p-53);
  }
  for (const double p : probes) {
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(a.Chance(p), b.NextDouble() < p) << "p=" << p;
    }
    // Exact at the cut: draw k passes iff k < threshold, whatever the stream.
    const std::uint64_t t = Rng::ChanceThreshold(p);
    ASSERT_LE(t, std::uint64_t{1} << 53) << "p=" << p;
    if (t > 0) {
      EXPECT_TRUE(static_cast<double>(t - 1) * 0x1.0p-53 < p) << "p=" << p;
    }
    if (t < (std::uint64_t{1} << 53)) {
      EXPECT_FALSE(static_cast<double>(t) * 0x1.0p-53 < p) << "p=" << p;
    }
  }
  EXPECT_EQ(Rng::ChanceThreshold(0.0), 0u);
  EXPECT_EQ(Rng::ChanceThreshold(-1.0), 0u);
  EXPECT_EQ(Rng::ChanceThreshold(std::numeric_limits<double>::quiet_NaN()), 0u);
  EXPECT_EQ(Rng::ChanceThreshold(1.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::ChanceThreshold(2.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::ChanceThreshold(std::numeric_limits<double>::denorm_min()), 1u);
  EXPECT_EQ(a.Next(), b.Next()) << "both streams must have made the same draws";
}

// BurstLength must return what the per-draw double loop returned and leave
// the stream at the same place; mean <= 1 makes no draw.
TEST(RngTest, BurstLengthEqualsDoubleLoop) {
  const auto double_loop = [](Rng& rng, double mean) -> std::uint64_t {
    if (mean <= 1.0) {
      return 1;
    }
    const double p = 1.0 / mean;
    std::uint64_t n = 1;
    while (!(rng.NextDouble() < p) && n < 1000000) {
      ++n;
    }
    return n;
  };
  Rng a(31);
  Rng b(31);
  for (const double mean : {0.1, 1.0, 1.0 + 0x1.0p-52, 1.5, 3.0, 8.0, 16.0, 1000.0,
                            std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    // An infinite or NaN mean never stops before the 10^6 cap: one burst.
    const int bursts = std::isfinite(mean) ? 100 : 1;
    for (int i = 0; i < bursts; ++i) {
      ASSERT_EQ(a.BurstLength(mean), double_loop(b, mean)) << "mean=" << mean;
      ASSERT_EQ(a.Next(), b.Next()) << "mean=" << mean;
    }
  }
}

// Jump() must land exactly where Skip(127) does.  The unit-vector states
// read every state bit's image, the states whose 32 bytes all equal v read
// every table entry for v, and seeded states (the paper workloads' among
// them) read random mixes of entries.
TEST(RngTest, JumpEqualsSkip127) {
  static_assert(Rng::kJumpDraws == 127);
  const auto expect_jump_equals_skip = [](const Rng& start, const std::string& what) {
    Rng jumped = start;
    Rng stepped = start;
    jumped.Jump();
    stepped.Skip(127);
    EXPECT_TRUE(jumped == stepped) << what;
    EXPECT_EQ(jumped.Next(), stepped.Next()) << what;
  };
  for (std::size_t bit = 0; bit < 256; ++bit) {
    std::array<std::uint64_t, 4> state{};
    state[bit / 64] = std::uint64_t{1} << (bit % 64);
    expect_jump_equals_skip(Rng::FromState(state), "unit state bit " + std::to_string(bit));
  }
  for (std::uint64_t v = 1; v < 256; ++v) {
    const std::uint64_t word = v * 0x0101010101010101ull;
    expect_jump_equals_skip(Rng::FromState({word, word, word, word}),
                            "every byte " + std::to_string(v));
  }
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    expect_jump_equals_skip(Rng(seed), "seed " + std::to_string(seed));
  }
  // The snapshot and trace seeds of every paper workload.
  for (const workload::WorkloadSpec& spec : workload::PaperWorkloads()) {
    expect_jump_equals_skip(Rng(spec.seed), spec.name + " snapshot");
    expect_jump_equals_skip(Rng(spec.seed ^ 0x9E3779B97F4A7C15ull), spec.name + " trace");
  }
}

// ---------------------------------------------------------------------------
// BucketHasher
// ---------------------------------------------------------------------------

TEST(HashTest, StaysInBucketRange) {
  const BucketHasher h(4096);
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(h(rng.Next()), 4096u);
  }
}

TEST(HashTest, MixSpreadsAlignedSegmentBases) {
  // Region bases that are multiples of the bucket count must not collapse
  // onto overlapping bucket ranges (the aliasing a plain xor-fold suffers).
  const BucketHasher mix(4096);
  std::set<std::uint32_t> buckets;
  for (std::uint64_t base = 0; base < 64; ++base) {
    buckets.insert(mix(base * 4096));
  }
  EXPECT_GT(buckets.size(), 56u) << "near-perfect spread expected";
}

TEST(HashTest, MixDistributionIsRoughlyUniform) {
  const BucketHasher h(256);
  std::vector<unsigned> counts(256, 0);
  for (std::uint64_t k = 0; k < 256 * 64; ++k) {
    ++counts[h(k * 0x10001)];
  }
  for (const unsigned c : counts) {
    EXPECT_GT(c, 16u);
    EXPECT_LT(c, 256u);
  }
}

TEST(HashTest, Mix64Avalanche) {
  // Flipping one input bit flips roughly half the output bits.
  for (unsigned bit = 0; bit < 64; bit += 7) {
    const std::uint64_t a = Mix64(0x123456789ABCDEFull);
    const std::uint64_t b = Mix64(0x123456789ABCDEFull ^ (1ull << bit));
    const int flipped = std::popcount(a ^ b);
    EXPECT_GT(flipped, 16) << "bit " << bit;
    EXPECT_LT(flipped, 48) << "bit " << bit;
  }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

TEST(StatsTest, RunningStatsBasics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.Add(1.0);
  s.Add(2.0);
  s.Add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 9.0);
}

TEST(StatsTest, HistogramCountsAndMean) {
  Histogram h;
  h.Add(1);
  h.Add(1);
  h.Add(4);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(1), 2u);
  EXPECT_EQ(h.count(4), 1u);
  EXPECT_EQ(h.count(2), 0u);
  EXPECT_EQ(h.max_value(), 4u);
  EXPECT_DOUBLE_EQ(h.mean(), 2.0);
  EXPECT_NE(h.ToString().find("1:2"), std::string::npos);
}

TEST(StatsTest, FormatBytes) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2KB");
  EXPECT_EQ(FormatBytes(3 * 1024 * 1024), "3MB");
}

// ---------------------------------------------------------------------------
// Merges: folding partial summaries equals one pass over every sample.
// ---------------------------------------------------------------------------

TEST(StatsTest, RunningStatsMergeMatchesSingleStream) {
  // Two disjoint halves of one sample stream must merge to the same summary
  // as a single accumulator that saw every sample.
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const double x = static_cast<double>(rng.Below(1 << 20)) / 1024.0;
    whole.Add(x);
    (i % 2 == 0 ? left : right).Add(x);
  }
  left.Merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_DOUBLE_EQ(left.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  // Chan's combine and sequential Welford round differently; both must agree
  // to far tighter than any consumer of a timing variance cares about.
  EXPECT_NEAR(left.variance(), whole.variance(), whole.variance() * 1e-9);
}

TEST(StatsTest, RunningStatsMergeEmptyCases) {
  RunningStats empty;
  RunningStats s;
  s.Add(2.0);
  s.Add(4.0);

  RunningStats into_empty;
  into_empty.Merge(s);  // empty <- populated adopts the stream.
  EXPECT_EQ(into_empty.count(), 2u);
  EXPECT_DOUBLE_EQ(into_empty.mean(), 3.0);
  EXPECT_DOUBLE_EQ(into_empty.min(), 2.0);

  s.Merge(empty);  // populated <- empty is a no-op.
  EXPECT_EQ(s.count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);

  empty.Merge(RunningStats{});  // empty <- empty stays empty.
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.mean(), 0.0);
}

TEST(StatsTest, HistogramMergeMatchesSingleStream) {
  Histogram whole;
  Histogram left;
  Histogram right;
  Rng rng(11);
  for (int i = 0; i < 300; ++i) {
    const std::size_t v = rng.Below(32);
    whole.Add(v);
    (i % 3 == 0 ? left : right).Add(v);
  }
  left.Merge(right);
  EXPECT_EQ(left.total(), whole.total());
  EXPECT_EQ(left.max_seen(), whole.max_seen());
  EXPECT_DOUBLE_EQ(left.mean(), whole.mean());
  for (std::size_t v = 0; v < 32; ++v) {
    EXPECT_EQ(left.count(v), whole.count(v)) << "bucket " << v;
  }
}

TEST(StatsTest, HistogramMergeFoldsWiderBucketsIntoOverflow) {
  // The destination clamps at 4 buckets; the source resolved values the
  // destination cannot, so they must land in overflow with total() and
  // mean() preserved exactly.
  Histogram narrow(4);
  narrow.Add(1);
  Histogram wide(64);
  wide.Add(2);
  wide.Add(10);
  wide.Add(100);  // Overflow even in the source (max_buckets 64).

  narrow.Merge(wide);
  EXPECT_EQ(narrow.total(), 4u);
  EXPECT_EQ(narrow.count(1), 1u);
  EXPECT_EQ(narrow.count(2), 1u);
  EXPECT_EQ(narrow.overflow(), 2u);  // 10 folded down + 100 carried over.
  EXPECT_EQ(narrow.max_seen(), 100u);
  EXPECT_DOUBLE_EQ(narrow.mean(), (1.0 + 2.0 + 10.0 + 100.0) / 4.0);
}

}  // namespace
}  // namespace cpt
