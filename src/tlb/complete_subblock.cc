#include "tlb/complete_subblock.h"

#include <algorithm>

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

CompleteSubblockTlb::CompleteSubblockTlb(unsigned num_entries, unsigned subblock_factor)
    : Tlb(num_entries),
      factor_(subblock_factor),
      entries_(num_entries),
      vectors_(num_entries),
      ppns_(std::size_t{num_entries} * subblock_factor) {
  CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= kMaxFactor,
            "per-entry valid vector is one 64-bit word");
}

unsigned CompleteSubblockTlb::FindOrAllocEntry(Asid asid, Vpbn vpbn) {
  unsigned e = FindTag(asid, vpbn);
  if (e == entries_.size()) {
    e = entries_.FirstInvalidOrOldest();
    entries_.Claim(e, asid, vpbn.raw());
    vectors_[e] = 0;
    entries_.stamps[e] = NextStamp();
  }
  return e;
}

LookupOutcome CompleteSubblockTlb::Probe(Asid asid, Vpn vpn) {
  const unsigned e = FindTag(asid, VpbnOf(vpn, factor_));
  if (e == entries_.size()) {
    RecordMiss(asid, vpn, LookupOutcome::kBlockMiss);
    return LookupOutcome::kBlockMiss;
  }
  if ((vectors_[e] >> BoffOf(vpn, factor_)) & 1u) {
    return Hit(asid, vpn, EntryHit{&entries_.stamps[e], nullptr});
  }
  RecordMiss(asid, vpn, LookupOutcome::kSubblockMiss);
  return LookupOutcome::kSubblockMiss;
}

Tlb::EntryHit CompleteSubblockTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  const unsigned e = FindOrAllocEntry(asid, VpbnOf(vpn, factor_));
  const unsigned boff = BoffOf(vpn, factor_);
  vectors_[e] |= std::uint64_t{1} << boff;
  PpnAt(e, boff) = fill.Translate(vpn);
  entries_.stamps[e] = NextStamp();
  return EntryHit{&entries_.stamps[e], nullptr};
}

void CompleteSubblockTlb::InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills) {
  const bool serves_miss = BeginFill(asid, vpn);
  const BlockSpan block = BlockSpanContaining(vpn, factor_);
  const unsigned e = FindOrAllocEntry(asid, VpbnOf(vpn, factor_));
  for (const pt::TlbFill& fill : fills) {
    // Only pages in both the block and the fill's span can be covered.
    const Vpn span_end = SuperpageBaseVpn(fill.base_vpn, PageSize{fill.pages_log2}) + fill.pages();
    const Vpn last = std::min(block.end(), span_end);
    for (Vpn page = std::max(block.first, fill.base_vpn); page < last; ++page) {
      if (fill.Covers(page)) {
        const unsigned boff = block.IndexOf(page);
        vectors_[e] |= std::uint64_t{1} << boff;
        PpnAt(e, boff) = fill.Translate(page);
      }
    }
  }
  entries_.stamps[e] = NextStamp();
  const bool covers = ((vectors_[e] >> block.IndexOf(vpn)) & 1u) != 0;
  EndFill(serves_miss, asid, vpn, covers ? EntryHit{&entries_.stamps[e], nullptr} : EntryHit{});
}

void CompleteSubblockTlb::DoFlush() { entries_.InvalidateAll(); }

void CompleteSubblockTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (unsigned i = 0; i < entries_.size(); ++i) {
    check::TlbEntryView view{.valid = entries_.valid[i] != 0,
                             .asid = entries_.asids[i],
                             .stamp = entries_.stamps[i],
                             .base_vpn = FirstVpnOfBlock(Vpbn{entries_.tags[i]}, factor_),
                             .pages_log2 = Log2(factor_),
                             .valid_vector = vectors_[i]};
    if (view.valid) {
      for (unsigned b = 0; b < factor_; ++b) {
        if ((vectors_[i] >> b) & 1u) {
          view.translations.emplace_back(view.base_vpn + b, ppns_[std::size_t{i} * factor_ + b]);
        }
      }
    }
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
