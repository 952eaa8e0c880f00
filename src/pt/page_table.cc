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

bool PageTable::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask, std::uint16_t clear_mask) {
  // Uncounted walk: the miss handler just read this word's line.
  const auto fill = LookupUncounted(VaOf(vpn));
  if (!fill) {
    return false;
  }
  const Attr updated{
      static_cast<std::uint16_t>((fill->word.attr().bits | set_mask) & ~clear_mask)};
  // Rewrite the covering word through the table's own upsert operation for
  // its format; every organization replaces in place.
  switch (fill->kind) {
    case MappingKind::kBase:
      InsertBase(vpn, fill->word.ppn(), updated);
      break;
    case MappingKind::kSuperpage:
      InsertSuperpage(fill->base_vpn, fill->word.page_size(), fill->word.ppn(), updated);
      break;
    case MappingKind::kPartialSubblock:
      UpsertPartialSubblock(fill->base_vpn, fill->pages(), fill->word.ppn(), updated,
                            fill->word.valid_vector());
      break;
  }
  return true;
}

std::optional<Attr> PageTable::PeekAttr(Vpn vpn) {
  const auto fill = LookupUncounted(VaOf(vpn));
  if (!fill) {
    return std::nullopt;
  }
  return fill->word.attr();
}

std::uint64_t PageTable::ScanAndClearReferenced(Vpn first_vpn, std::uint64_t npages) {
  // The clock-daemon sweep.  The count is PTE-granular: a referenced
  // superpage or PSB word counts once, because clearing its bit at the
  // first covered page clears it for the rest of the word's range.
  std::uint64_t referenced = 0;
  for (std::uint64_t i = 0; i < npages; ++i) {
    const Vpn vpn = first_vpn + i;
    const auto attr = PeekAttr(vpn);
    if (attr.has_value() && attr->test(Attr::kReferenced)) {
      UpdateAttrFlags(vpn, 0, Attr::kReferenced);
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
