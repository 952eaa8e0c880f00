// Simulated-physical-address allocator for page-table structures.
//
// Page tables in this library are ordinary C++ objects, but for cache-line
// accounting each node/array needs a stable *simulated* physical address.
// SimAllocator hands out such addresses from a bump region with per-size
// free lists, and keeps two byte counts:
//   - bytes_live():      bytes currently allocated (actual footprint)
//   - high_water_bytes() peak footprint
//
// The paper's size formulae (appendix Table 2) count only PTE payload bytes
// (e.g. 24 bytes per hashed PTE) and charge nothing for empty buckets; the
// page-table classes compute that "paper model" size themselves and use this
// allocator for the physically-accurate view and for address assignment.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace cpt::mem {

class SimAllocator {
 public:
  // Each allocator instance carves addresses from its own disjoint 16TB
  // region of the simulated physical address space, so structures owned by
  // different tables never alias in the cache-line model.
  explicit SimAllocator(std::uint32_t line_size = kDefaultCacheLineSize);

  // Returns a simulated physical address for `size` bytes.  Every node
  // starts on a cache-line boundary (the paper's Section 6.1 assumption:
  // "each PTE starts on a cache line boundary"); page-sized structures are
  // page-aligned.
  PhysAddr Allocate(std::uint64_t size);

  // Returns the block to the allocator's free list.
  void Free(PhysAddr addr, std::uint64_t size);

  std::uint64_t bytes_live() const { return bytes_live_; }
  std::uint64_t high_water_bytes() const { return high_water_; }
  std::uint32_t line_size() const { return line_size_; }

 private:
  std::uint64_t AlignmentFor(std::uint64_t size) const;

  std::uint32_t line_size_;
  PhysAddr bump_{};  // Set in the constructor; never 0 so 0 can mean "null".
  std::uint64_t bytes_live_ = 0;
  std::uint64_t high_water_ = 0;
  // Free lists keyed by rounded allocation size.
  std::unordered_map<std::uint64_t, std::vector<PhysAddr>> free_lists_;
};

}  // namespace cpt::mem
