#include "mem/sim_alloc.h"

#include "common/check.h"

namespace cpt::mem {

namespace {
// Monotonic region ids; each allocator gets region_id << 44 (16TB apart).
std::uint64_t next_region_id = 1;
}  // namespace

SimAllocator::SimAllocator(std::uint32_t line_size) : line_size_(line_size) {
  CPT_CHECK(IsPowerOfTwo(line_size));
  bump_ = PhysAddr{(next_region_id++ << 44) + kBasePageSize};
}

std::uint64_t SimAllocator::AlignmentFor(std::uint64_t size) const {
  // Page-sized structures keep page alignment so the linear page table's
  // leaf pages stay page-aligned.
  return size >= kBasePageSize ? kBasePageSize : line_size_;
}

PhysAddr SimAllocator::Allocate(std::uint64_t size) {
  CPT_DCHECK(size > 0);
  const std::uint64_t align = AlignmentFor(size);
  const std::uint64_t rounded = (size + align - 1) & ~(align - 1);

  bytes_live_ += size;
  if (bytes_live_ > high_water_) {
    high_water_ = bytes_live_;
  }

  auto it = free_lists_.find(rounded);
  if (it != free_lists_.end() && !it->second.empty()) {
    const PhysAddr addr = it->second.back();
    it->second.pop_back();
    return addr;
  }

  // Alignment rounding on the raw byte address. // cpt-lint: allow(raw-address-param)
  bump_ = PhysAddr{(bump_.raw() + align - 1) & ~(align - 1)};
  const PhysAddr addr = bump_;
  bump_ += rounded;
  return addr;
}

void SimAllocator::Free(PhysAddr addr, std::uint64_t size) {
  CPT_DCHECK(addr != PhysAddr{} && size > 0);
  CPT_DCHECK(bytes_live_ >= size);
  const std::uint64_t align = AlignmentFor(size);
  const std::uint64_t rounded = (size + align - 1) & ~(align - 1);
  bytes_live_ -= size;
  // The free list is what keeps the steady state allocation-free: it grows
  // only the first time a size class sees a free, then recycles capacity.
  free_lists_[rounded].push_back(addr);
}

}  // namespace cpt::mem
