#include "tlb/dual_size_setassoc.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

DualSizeSetAssocTlb::DualSizeSetAssocTlb(unsigned num_sets, unsigned ways,
                                         unsigned superpage_log2)
    : Tlb(num_sets * ways),
      num_sets_(num_sets),
      ways_(ways),
      superpage_log2_(superpage_log2),
      entries_(std::size_t{num_sets} * ways) {
  CPT_CHECK(IsPowerOfTwo(num_sets) && ways >= 1, "set index must be a bit field");
  invalid_entries_ = entries_.size();
}

LookupOutcome DualSizeSetAssocTlb::Probe(Asid asid, Vpn vpn) {
  const unsigned set = SetOf(vpn);
  for (unsigned way = 0; way < ways_; ++way) {
    Entry& e = entries_[std::size_t{set} * ways_ + way];
    if (Matches(e, asid, vpn)) {
      return Hit(asid, vpn, EntryHit{&e.stamp, nullptr});
    }
  }
  RecordMiss(asid, vpn, LookupOutcome::kMiss);
  return LookupOutcome::kMiss;
}

Tlb::EntryHit DualSizeSetAssocTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  Entry incoming;
  incoming.asid = asid;
  incoming.valid = true;
  if (fill.kind == MappingKind::kSuperpage && fill.pages_log2 == superpage_log2_) {
    incoming.base_vpn = fill.base_vpn;
    incoming.base_ppn = fill.word.ppn();
    incoming.pages_log2 = superpage_log2_;
  } else {
    // Everything else (base pages, PSB fills, odd-size superpages) installs
    // as one base-page entry — this TLB supports exactly two sizes.
    incoming.base_vpn = vpn;
    incoming.base_ppn = fill.Translate(vpn);
    incoming.pages_log2 = 0;
  }

  const unsigned set = SetOf(vpn);
  Entry* victim = nullptr;
  for (unsigned way = 0; way < ways_; ++way) {
    Entry& e = entries_[std::size_t{set} * ways_ + way];
    if (Matches(e, asid, vpn) ||
        (e.valid && e.asid == asid && e.base_vpn == incoming.base_vpn &&
         e.pages_log2 == incoming.pages_log2)) {
      victim = &e;  // Refresh in place.
      break;
    }
    if (!e.valid && victim == nullptr) {
      victim = &e;
    }
  }
  if (victim == nullptr) {
    // Set full: evict the LRU way.  If any set elsewhere still has invalid
    // entries, this is a conflict eviction a fully-associative TLB of the
    // same capacity would not have taken.
    victim = &entries_[std::size_t{set} * ways_];
    for (unsigned way = 1; way < ways_; ++way) {
      Entry& e = entries_[std::size_t{set} * ways_ + way];
      if (e.stamp < victim->stamp) {
        victim = &e;
      }
    }
    if (invalid_entries_ > 0) {
      ++conflict_evictions_;
    }
  }
  if (!victim->valid) {
    --invalid_entries_;
  }
  incoming.stamp = NextStamp();
  *victim = incoming;
  return Matches(*victim, asid, vpn) ? EntryHit{&victim->stamp, nullptr} : EntryHit{};
}

void DualSizeSetAssocTlb::DoFlush() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
  invalid_entries_ = entries_.size();
}

void DualSizeSetAssocTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  visitor.OnTlb({.num_sets = num_sets_,
                 .set_shift = superpage_log2_,
                 .page_sizes = 1u | (std::uint64_t{1} << superpage_log2_),
                 .invalid_entries = invalid_entries_});
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    check::TlbEntryView view{.set = static_cast<unsigned>(i / ways_),
                             .valid = e.valid,
                             .asid = e.asid,
                             .stamp = e.stamp,
                             .base_vpn = e.base_vpn,
                             .pages_log2 = e.pages_log2,
                             .base_ppn = e.base_ppn};
    view.TranslateRun();
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
