#include "pt/page_table.h"

#include "common/check.h"

namespace cpt::pt {

void PageTable::LookupBlock(VirtAddr va, unsigned subblock_factor, std::vector<TlbFill>& out) {
  // Default: one independent probe per base page of the block.  This is the
  // cost the paper charges hashed page tables for complete-subblock prefetch
  // (Section 4.4): neighboring base pages hash to different buckets.
  const Vpn vpn = VpnOf(va);
  const Vpn first = FirstVpnOfBlock(VpbnOf(vpn, subblock_factor), subblock_factor);
  // Callers reuse `out` across walks (Machine::block_fills_); this reserve is
  // a no-op in the steady state, so the push_backs below and in the
  // overrides never allocate there.
  out.reserve(subblock_factor);
  for (unsigned i = 0; i < subblock_factor; ++i) {
    if (auto fill = Lookup(VaOf(first + i))) {
      out.push_back(*fill);
    }
  }
}

std::optional<TlbFill> PageTable::LookupUncounted(VirtAddr va) {
  cache_.BeginWalk();
  auto fill = Lookup(va);
  cache_.AbortWalk();
  return fill;
}

std::uint64_t PageTable::ScanAndClearReferenced(Vpn first_vpn, std::uint64_t npages) {
  // The clock-daemon sweep.  The count is PTE-granular: a referenced
  // superpage or PSB word counts once, because clearing its bit at the
  // first covered page clears it for the rest of the word's range.
  std::uint64_t referenced = 0;
  for (std::uint64_t i = 0; i < npages; ++i) {
    const auto was = UpdateAttrFlags(first_vpn + i, 0, Attr::kReferenced);
    if (was.has_value() && was->test(Attr::kReferenced)) {
      ++referenced;
    }
  }
  return referenced;
}

void PageTable::InsertSuperpage(Vpn /*base_vpn*/, PageSize /*size*/, Ppn /*base_ppn*/,
                                Attr /*attr*/) {
  CPT_CHECK(false, "this page table does not support superpage PTEs");
}

bool PageTable::RemoveSuperpage(Vpn /*base_vpn*/, PageSize /*size*/) {
  CPT_CHECK(false, "this page table does not support superpage PTEs");
  return false;
}

void PageTable::UpsertPartialSubblock(Vpn /*block_base_vpn*/, unsigned /*subblock_factor*/,
                                      Ppn /*block_base_ppn*/, Attr /*attr*/,
                                      std::uint16_t /*valid_vector*/) {
  CPT_CHECK(false, "this page table does not support partial-subblock PTEs");
}

bool PageTable::RemovePartialSubblock(Vpn /*block_base_vpn*/, unsigned /*subblock_factor*/) {
  CPT_CHECK(false, "this page table does not support partial-subblock PTEs");
  return false;
}

}  // namespace cpt::pt
