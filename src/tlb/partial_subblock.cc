#include "tlb/partial_subblock.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

PartialSubblockTlb::PartialSubblockTlb(unsigned num_entries, unsigned subblock_factor)
    : Tlb(num_entries),
      factor_(subblock_factor),
      block_log2_(Log2(subblock_factor)),
      entries_(num_entries) {
  CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= 16,
            "PSB valid vectors hold at most 16 bits");
}

bool PartialSubblockTlb::Covers(const Entry& e, Asid asid, Vpn vpn) const {
  if (!e.valid || e.asid != asid) {
    return false;
  }
  if (!e.block_entry) {
    return e.single_vpn == vpn;
  }
  if (VpbnOf(vpn, factor_) != e.vpbn) {
    return false;
  }
  return (e.vector >> BoffOf(vpn, factor_)) & 1u;
}

LookupOutcome PartialSubblockTlb::Probe(Asid asid, Vpn vpn) {
  for (Entry& e : entries_) {
    if (Covers(e, asid, vpn)) {
      return Hit(asid, vpn, e.stamp, e.block_entry ? &psb_hits_ : nullptr);
    }
  }
  RecordMiss(LookupOutcome::kMiss);
  return LookupOutcome::kMiss;
}

void PartialSubblockTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  Entry incoming;
  incoming.asid = asid;
  incoming.valid = true;
  switch (fill.kind) {
    case MappingKind::kPartialSubblock:
      incoming.block_entry = true;
      incoming.vpbn = VpbnOf(fill.base_vpn, factor_);
      incoming.block_ppn = fill.word.ppn();
      incoming.vector = fill.word.valid_vector();
      break;
    case MappingKind::kSuperpage:
      if (fill.pages_log2 == block_log2_) {
        // A block-sized superpage is an all-valid partial-subblock entry.
        incoming.block_entry = true;
        incoming.vpbn = VpbnOf(fill.base_vpn, factor_);
        incoming.block_ppn = fill.word.ppn();
        incoming.vector =
            factor_ >= 16 ? std::uint16_t{0xFFFF} : static_cast<std::uint16_t>((1u << factor_) - 1);
      } else {
        // Other sizes don't fit this entry format: map the faulting page.
        incoming.block_entry = false;
        incoming.single_vpn = vpn;
        incoming.single_ppn = fill.Translate(vpn);
      }
      break;
    case MappingKind::kBase:
      incoming.block_entry = false;
      incoming.single_vpn = vpn;
      incoming.single_ppn = fill.Translate(vpn);
      break;
  }

  Entry* victim = &entries_[0];
  for (Entry& e : entries_) {
    const bool same_slot =
        e.valid && e.asid == asid && e.block_entry == incoming.block_entry &&
        (incoming.block_entry ? e.vpbn == incoming.vpbn : e.single_vpn == incoming.single_vpn);
    if (same_slot) {
      victim = &e;  // Refresh (e.g. the PSB vector grew a bit).
      break;
    }
    if (!e.valid) {
      victim = &e;
    } else if (victim->valid && e.stamp < victim->stamp) {
      victim = &e;
    }
  }
  incoming.stamp = NextStamp();
  *victim = incoming;
}

void PartialSubblockTlb::DoFlush() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
}

void PartialSubblockTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (const Entry& e : entries_) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = e.valid;
    view.asid = e.asid;
    view.stamp = e.stamp;
    view.block_entry = e.block_entry;
    if (e.block_entry) {
      view.base_vpn = FirstVpnOfBlock(e.vpbn, factor_);
      view.base_ppn = e.block_ppn;
      view.pages_log2 = block_log2_;
      view.valid_vector = e.vector;
    } else {
      view.base_vpn = e.single_vpn;
      view.base_ppn = e.single_ppn;
      view.pages_log2 = 0;
      view.valid_vector = 1;
    }
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
