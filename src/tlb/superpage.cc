#include "tlb/superpage.h"

#include "check/audit_visitor.h"

namespace cpt::tlb {

SuperpageTlb::SuperpageTlb(unsigned num_entries) : Tlb(num_entries), entries_(num_entries) {}

LookupOutcome SuperpageTlb::Probe(Asid asid, Vpn vpn) {
  for (Entry& e : entries_) {
    const PageSize size{e.pages_log2};
    if (e.valid && e.asid == asid &&
        SuperpageBaseVpn(vpn, size) == SuperpageBaseVpn(e.base_vpn, size)) {
      return Hit(asid, vpn, e.stamp, e.pages_log2 > 0 ? &super_hits_ : nullptr);
    }
  }
  RecordMiss(LookupOutcome::kMiss);
  return LookupOutcome::kMiss;
}

void SuperpageTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  Entry incoming;
  incoming.asid = asid;
  incoming.valid = true;
  if (fill.kind == MappingKind::kPartialSubblock) {
    // No valid vector in a superpage entry: install just the faulting page.
    incoming.base_vpn = vpn;
    incoming.base_ppn = fill.Translate(vpn);
    incoming.pages_log2 = 0;
  } else {
    incoming.base_vpn = fill.base_vpn;
    incoming.base_ppn = fill.word.ppn();
    incoming.pages_log2 = fill.pages_log2;
  }

  Entry* victim = &entries_[0];
  for (Entry& e : entries_) {
    if (e.valid && e.asid == asid && e.base_vpn == incoming.base_vpn &&
        e.pages_log2 == incoming.pages_log2) {
      victim = &e;
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

void SuperpageTlb::DoFlush() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
}

void SuperpageTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (const Entry& e : entries_) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = e.valid;
    view.asid = e.asid;
    view.stamp = e.stamp;
    view.base_vpn = e.base_vpn;
    view.base_ppn = e.base_ppn;
    view.pages_log2 = e.pages_log2;
    view.valid_vector = 1;
    view.block_entry = e.pages_log2 > 0;
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
