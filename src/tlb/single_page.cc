#include "tlb/single_page.h"

#include "check/audit_visitor.h"

namespace cpt::tlb {

SinglePageTlb::SinglePageTlb(unsigned num_entries) : Tlb(num_entries), entries_(num_entries) {}

LookupOutcome SinglePageTlb::Probe(Asid asid, Vpn vpn) {
  for (Entry& e : entries_) {
    if (e.valid && e.asid == asid && e.vpn == vpn) {
      return Hit(asid, vpn, e.stamp, nullptr);
    }
  }
  RecordMiss(LookupOutcome::kMiss);
  return LookupOutcome::kMiss;
}

void SinglePageTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  // A single-page TLB holds exactly one base translation regardless of the
  // fill's coverage (a superpage fill still installs only the faulting page).
  Entry* victim = &entries_[0];
  for (Entry& e : entries_) {
    if (e.valid && e.asid == asid && e.vpn == vpn) {
      victim = &e;  // Re-insert over the stale entry.
      break;
    }
    if (!e.valid) {
      victim = &e;
    } else if (victim->valid && e.stamp < victim->stamp) {
      victim = &e;
    }
  }
  victim->asid = asid;
  victim->vpn = vpn;
  victim->ppn = fill.Translate(vpn);
  victim->valid = true;
  victim->stamp = NextStamp();
}

void SinglePageTlb::DoFlush() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
}

void SinglePageTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (const Entry& e : entries_) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = e.valid;
    view.asid = e.asid;
    view.stamp = e.stamp;
    view.base_vpn = e.vpn;
    view.base_ppn = e.ppn;
    view.pages_log2 = 0;
    view.valid_vector = 1;
    view.block_entry = false;
    if (e.valid) {
      view.translations.emplace_back(e.vpn, e.ppn);
    }
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
