#include "core/multi_size.h"

#include "common/check.h"

namespace cpt::core {

namespace {

ClusteredPageTable::Options TableOptions(const MultiSizeClustered::Options& o, unsigned factor) {
  return ClusteredPageTable::Options{
      .num_buckets = o.num_buckets,
      .subblock_factor = factor,
  };
}

}  // namespace

MultiSizeClustered::MultiSizeClustered(mem::CacheTouchModel& cache, Options opts)
    : PageTable(cache),
      opts_(opts),
      small_(cache, TableOptions(opts, opts.small_factor)),
      large_(cache, TableOptions(opts, opts.large_factor)) {
  CPT_CHECK(opts.small_factor < opts.large_factor);
}

std::optional<pt::TlbFill> MultiSizeClustered::Lookup(VirtAddr va) {
  // Small pages miss more often: search their table first (Section 4.2's
  // sequencing rule), falling back to the large-superpage table.
  if (auto fill = small_.Lookup(va)) {
    return fill;
  }
  return large_.Lookup(va);
}

void MultiSizeClustered::LookupBlock(VirtAddr va, unsigned subblock_factor,
                                     std::vector<pt::TlbFill>& out) {
  small_.LookupBlock(va, subblock_factor, out);
}

void MultiSizeClustered::InsertBase(Vpn vpn, Ppn ppn, Attr attr) {
  small_.InsertBase(vpn, ppn, attr);
}

bool MultiSizeClustered::RemoveBase(Vpn vpn) { return small_.RemoveBase(vpn); }

void MultiSizeClustered::InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) {
  if (size.pages() <= opts_.small_factor) {
    small_.InsertSuperpage(base_vpn, size, base_ppn, attr);
  } else {
    large_.InsertSuperpage(base_vpn, size, base_ppn, attr);
  }
}

bool MultiSizeClustered::RemoveSuperpage(Vpn base_vpn, PageSize size) {
  if (size.pages() <= opts_.small_factor) {
    return small_.RemoveSuperpage(base_vpn, size);
  }
  return large_.RemoveSuperpage(base_vpn, size);
}

void MultiSizeClustered::UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor,
                                               Ppn block_base_ppn, Attr attr,
                                               std::uint16_t valid_vector) {
  small_.UpsertPartialSubblock(block_base_vpn, subblock_factor, block_base_ppn, attr,
                               valid_vector);
}

bool MultiSizeClustered::RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) {
  return small_.RemovePartialSubblock(block_base_vpn, subblock_factor);
}

std::optional<Attr> MultiSizeClustered::UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                                        std::uint16_t clear_mask) {
  // Probe order matches Lookup: the small-block table answers first.
  if (const auto was = small_.UpdateAttrFlags(vpn, set_mask, clear_mask)) {
    return was;
  }
  return large_.UpdateAttrFlags(vpn, set_mask, clear_mask);
}

std::uint64_t MultiSizeClustered::ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) {
  return small_.ProtectRange(first_vpn, npages, attr) +
         large_.ProtectRange(first_vpn, npages, attr);
}

std::uint64_t MultiSizeClustered::SizeBytesPaperModel() const {
  return small_.SizeBytesPaperModel() + large_.SizeBytesPaperModel();
}

std::uint64_t MultiSizeClustered::SizeBytesActual() const {
  return small_.SizeBytesActual() + large_.SizeBytesActual();
}

std::uint64_t MultiSizeClustered::live_translations() const {
  return small_.live_translations() + large_.live_translations();
}

void MultiSizeClustered::AuditVisit(check::PtAuditVisitor& visitor) const {
  small_.AuditVisit(visitor);
  large_.AuditVisit(visitor);
}

}  // namespace cpt::core
