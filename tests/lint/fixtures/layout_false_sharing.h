// Fixture: false-sharing.  Two shapes of the defect:
//   (A) per-shard/per-stripe containers whose element type is smaller than
//       a destructive-interference line — adjacent shards ping-pong one
//       host cache line between writer threads;
//   (B) inside a CPT_SHARED class, fields that different threads update
//       independently (distinct guards, or an atomic next to a lock)
//       landing on one 64-byte line.
// Aligned / regrouped variants of both must stay silent, as must the
// at-site suppression.
#ifndef CPT_TESTS_LINT_FIXTURES_LAYOUT_FALSE_SHARING_H_
#define CPT_TESTS_LINT_FIXTURES_LAYOUT_FALSE_SHARING_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/hotpath.h"
// Mutex below is this fixture's own stand-in for a lock type.

namespace fx {

// 16 bytes: four of these share every destructive-interference line.
struct Counter {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

// One full line per element: adjacent shards cannot interfere.
struct CPT_CACHE_ALIGNED AlignedCounter {
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
};

// Plain alignas works too — the macro is not magic.
struct alignas(64) PaddedSlot {
  std::uint64_t value = 0;
};

class ShardedCounters {
 public:
  void Bump(unsigned shard);

 private:
  // BAD: 16-byte elements, four shards per line.
  std::vector<Counter> shards_;

  // GOOD: the element type is CPT_CACHE_ALIGNED.
  std::vector<AlignedCounter> stripes_;

  // GOOD: alignas(64) on the element type.
  std::unique_ptr<PaddedSlot[]> slot_shards_;

  // GOOD: a shard *count* is not per-shard storage.
  unsigned num_shards_ = 0;

  // GOOD (suppressed): cold snapshot copy, never written concurrently.
  std::vector<Counter> dead_shards_;  // cpt-lint: allow(false-sharing)
};

// BAD: two capabilities carve this class into independently-updated halves,
// but both guarded fields land on host line 0.
class CPT_SHARED SplitCounters {
 public:
  void BumpFast();
  void BumpSlow();

 private:
  std::uint64_t fast_total_ CPT_GUARDED_BY(fast_mu_) = 0;
  std::uint64_t slow_total_ CPT_GUARDED_BY(slow_mu_) = 0;
  Mutex fast_mu_;
  Mutex slow_mu_;
};

// GOOD: same two capabilities, but each guarded field sits on its own line
// (CPT_CACHE_ALIGNED hoists the field to a fresh 64-byte boundary).
class CPT_SHARED RegroupedCounters {
 public:
  void BumpFast();
  void BumpSlow();

 private:
  CPT_CACHE_ALIGNED std::uint64_t fast_total_ CPT_GUARDED_BY(fast_mu_) = 0;
  CPT_CACHE_ALIGNED std::uint64_t slow_total_ CPT_GUARDED_BY(slow_mu_) = 0;
  Mutex fast_mu_;
  Mutex slow_mu_;
};

// A lock type: the rule classifies fields by the type name, and the layout
// model sizes them from this definition (one line each).
struct CPT_CACHE_ALIGNED Mutex {
  std::uint64_t state[2];
};

}  // namespace fx

#endif  // CPT_TESTS_LINT_FIXTURES_LAYOUT_FALSE_SHARING_H_
