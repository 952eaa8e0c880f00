#include "tlb/single_page.h"

#include "check/audit_visitor.h"

namespace cpt::tlb {

SinglePageTlb::SinglePageTlb(unsigned num_entries)
    : Tlb(num_entries), entries_(num_entries), ppns_(num_entries) {}

LookupOutcome SinglePageTlb::Probe(Asid asid, Vpn vpn) {
  const unsigned i = Find(asid, vpn);
  if (i < entries_.size()) {
    return Hit(asid, vpn, EntryHit{&entries_.stamps[i], nullptr});
  }
  RecordMiss(asid, vpn, LookupOutcome::kMiss);
  return LookupOutcome::kMiss;
}

Tlb::EntryHit SinglePageTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  // A single-page TLB holds exactly one base translation regardless of the
  // fill's coverage (a superpage fill still installs only the faulting page).
  // A re-insert overwrites the stale entry.
  unsigned victim = Find(asid, vpn);
  if (victim == entries_.size()) {
    victim = entries_.LastInvalidOrOldest();
  }
  entries_.Claim(victim, asid, vpn.raw());
  ppns_[victim] = fill.Translate(vpn);
  entries_.stamps[victim] = NextStamp();
  return EntryHit{&entries_.stamps[victim], nullptr};
}

void SinglePageTlb::DoFlush() { entries_.InvalidateAll(); }

void SinglePageTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (unsigned i = 0; i < entries_.size(); ++i) {
    check::TlbEntryView view{.valid = entries_.valid[i] != 0,
                             .asid = entries_.asids[i],
                             .stamp = entries_.stamps[i],
                             .base_vpn = Vpn{entries_.tags[i]},
                             .base_ppn = ppns_[i]};
    view.TranslateRun();
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
