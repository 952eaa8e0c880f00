#include "pt/multi_hashed.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::pt {

namespace {

HashedPageTable::Options BaseTableOptions(const MultiTableHashed::Options& o) {
  return HashedPageTable::Options{
      .num_buckets = o.num_buckets,
      .tag_shift = 0,
  };
}

HashedPageTable::Options BlockTableOptions(const MultiTableHashed::Options& o) {
  return HashedPageTable::Options{
      .num_buckets = o.num_buckets,
      .tag_shift = Log2(o.subblock_factor),
  };
}

}  // namespace

MultiTableHashed::MultiTableHashed(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache),
      opts_(opts),
      base_(cache, BaseTableOptions(opts)),
      block_(cache, BlockTableOptions(opts)) {
  CPT_CHECK(IsPowerOfTwo(opts.subblock_factor));
}

std::optional<TlbFill> MultiTableHashed::Lookup(VirtAddr va) {
  const auto [first, second] = InSearchOrder();
  if (auto fill = first->Lookup(va)) {
    return fill;
  }
  // The first search failed; the TLB miss handler must now search the other
  // page table — this second full search is the cost Section 6.3 highlights.
  return second->Lookup(va);
}

void MultiTableHashed::InsertBase(Vpn vpn, Ppn ppn, Attr attr) { base_.InsertBase(vpn, ppn, attr); }

bool MultiTableHashed::RemoveBase(Vpn vpn) { return base_.RemoveBase(vpn); }

void MultiTableHashed::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  block_.InsertSuperpage(base_vpn, size, base_ppn, attr);
}

bool MultiTableHashed::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  return block_.RemoveSuperpage(base_vpn, size);
}

void MultiTableHashed::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                             Ppn block_base_ppn, Attr attr,
                                             std::uint16_t valid_vector) {
  block_.UpsertPartialSubblock(block_base_vpn, subblock_factor, block_base_ppn, attr,
                               valid_vector);
}

bool MultiTableHashed::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  return block_.RemovePartialSubblock(block_base_vpn, subblock_factor);
}

std::optional<Attr> MultiTableHashed::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                      std::uint16_t clear_mask) {
  // R/M bits live in whichever constituent table holds the covering PTE;
  // the first one in search order answers, as in Lookup.
  const auto [first, second] = InSearchOrder();
  if (const auto was = first->UpdateAttrFlags(vpn, set_mask, clear_mask)) {
    return was;
  }
  return second->UpdateAttrFlags(vpn, set_mask, clear_mask);
}

std::uint64_t MultiTableHashed::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  return base_.ProtectRange(first_vpn, npages, attr) +
         block_.ProtectRange(first_vpn, npages, attr);
}

std::uint64_t MultiTableHashed::SizeBytesPaperModel() const {
  return base_.SizeBytesPaperModel() + block_.SizeBytesPaperModel();
}

std::uint64_t MultiTableHashed::SizeBytesActual() const {
  return base_.SizeBytesActual() + block_.SizeBytesActual();
}

std::uint64_t MultiTableHashed::live_translations() const {
  return base_.live_translations() + block_.live_translations();
}

std::string MultiTableHashed::name() const {
  return opts_.order == SearchOrder::kBaseFirst ? "hashed-multi" : "hashed-multi-blockfirst";
}

void MultiTableHashed::AuditVisit(check::PtAuditVisitor& visitor) const {
  base_.AuditVisit(visitor);
  block_.AuditVisit(visitor);
}

}  // namespace cpt::pt
