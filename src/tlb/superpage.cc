#include "tlb/superpage.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

SuperpageTlb::SuperpageTlb(unsigned num_entries)
    : Tlb(num_entries),
      entries_(num_entries),
      spans_(num_entries, ~std::uint64_t{0}),
      ppns_(num_entries),
      log2s_(num_entries) {}

LookupOutcome SuperpageTlb::Probe(Asid asid, Vpn vpn) {
  const unsigned i = entries_.FindLive(asid, [&](unsigned j) { return SpanHolds(j, vpn); });
  if (i < entries_.size()) {
    return Hit(asid, vpn, HitOn(i));
  }
  RecordMiss(asid, vpn, LookupOutcome::kMiss);
  return LookupOutcome::kMiss;
}

Tlb::EntryHit SuperpageTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  Vpn base = fill.base_vpn;
  Ppn ppn = fill.word.ppn();
  unsigned pages_log2 = fill.pages_log2;
  if (fill.kind == MappingKind::kPartialSubblock) {
    // No valid vector in a superpage entry: install just the faulting page.
    base = vpn;
    ppn = fill.Translate(vpn);
    pages_log2 = 0;
  }
  CPT_DCHECK(IsSuperpageAligned(base, PageSize{pages_log2}), "superpage fills are aligned");
  const std::uint64_t tag = base.raw();  // Bit-packing: the tag column.

  // Refresh the entry of the same span and size, if any.
  unsigned victim = entries_.FindLive(asid, [&](unsigned i) {
    return entries_.tags[i] == tag && log2s_[i] == pages_log2;
  });
  if (victim == entries_.size()) {
    victim = entries_.LastInvalidOrOldest();
  }
  entries_.Claim(victim, asid, tag);
  spans_[victim] = ~((std::uint64_t{1} << pages_log2) - 1);
  ppns_[victim] = ppn;
  log2s_[victim] = static_cast<std::uint8_t>(pages_log2);
  entries_.stamps[victim] = NextStamp();
  return SpanHolds(victim, vpn) ? HitOn(victim) : EntryHit{};
}

void SuperpageTlb::DoFlush() { entries_.InvalidateAll(); }

void SuperpageTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (unsigned i = 0; i < entries_.size(); ++i) {
    check::TlbEntryView view{.valid = entries_.valid[i] != 0,
                             .asid = entries_.asids[i],
                             .stamp = entries_.stamps[i],
                             .base_vpn = Vpn{entries_.tags[i]},
                             .pages_log2 = log2s_[i],
                             .base_ppn = ppns_[i]};
    view.TranslateRun();
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
