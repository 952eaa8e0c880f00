#include "tlb/complete_subblock.h"

#include "check/audit_visitor.h"
#include "common/check.h"

namespace cpt::tlb {

CompleteSubblockTlb::CompleteSubblockTlb(unsigned num_entries, unsigned subblock_factor)
    : Tlb(num_entries), factor_(subblock_factor), entries_(num_entries) {
  CPT_CHECK(IsPowerOfTwo(subblock_factor) && subblock_factor <= kMaxFactor,
            "per-entry valid vector is one 64-bit word");
}

CompleteSubblockTlb::Entry* CompleteSubblockTlb::FindTag(Asid asid, Vpbn vpbn) {
  for (Entry& e : entries_) {
    if (e.valid && e.asid == asid && e.vpbn == vpbn) {
      return &e;
    }
  }
  return nullptr;
}

CompleteSubblockTlb::Entry& CompleteSubblockTlb::AllocEntry(Asid asid, Vpbn vpbn) {
  Entry* victim = &entries_[0];
  for (Entry& e : entries_) {
    if (!e.valid) {
      victim = &e;
      break;
    }
    if (victim->valid && e.stamp < victim->stamp) {
      victim = &e;
    }
  }
  *victim = Entry{};
  victim->asid = asid;
  victim->vpbn = vpbn;
  victim->valid = true;
  victim->stamp = NextStamp();
  return *victim;
}

LookupOutcome CompleteSubblockTlb::Probe(Asid asid, Vpn vpn) {
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  Entry* e = FindTag(asid, vpbn);
  if (e == nullptr) {
    RecordMiss(LookupOutcome::kBlockMiss);
    return LookupOutcome::kBlockMiss;
  }
  const unsigned boff = BoffOf(vpn, factor_);
  if ((e->vector >> boff) & 1u) {
    return Hit(asid, vpn, e->stamp, nullptr);
  }
  RecordMiss(LookupOutcome::kSubblockMiss);
  return LookupOutcome::kSubblockMiss;
}

void CompleteSubblockTlb::DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) {
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  Entry* e = FindTag(asid, vpbn);
  if (e == nullptr) {
    e = &AllocEntry(asid, vpbn);
  }
  const unsigned boff = BoffOf(vpn, factor_);
  e->vector |= std::uint64_t{1} << boff;
  e->ppns[boff] = fill.Translate(vpn);
  e->stamp = NextStamp();
}

void CompleteSubblockTlb::InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills) {
  ForgetHit();
  const Vpbn vpbn = VpbnOf(vpn, factor_);
  Entry* e = FindTag(asid, vpbn);
  if (e == nullptr) {
    e = &AllocEntry(asid, vpbn);
  }
  const Vpn first = FirstVpnOfBlock(vpbn, factor_);
  for (const pt::TlbFill& fill : fills) {
    for (unsigned i = 0; i < factor_; ++i) {
      if (fill.Covers(first + i)) {
        e->vector |= std::uint64_t{1} << i;
        e->ppns[i] = fill.Translate(first + i);
      }
    }
  }
  e->stamp = NextStamp();
}

void CompleteSubblockTlb::DoFlush() {
  for (Entry& e : entries_) {
    e.valid = false;
  }
}

void CompleteSubblockTlb::AuditVisit(check::TlbAuditVisitor& visitor) const {
  for (const Entry& e : entries_) {
    check::TlbEntryView view;
    view.set = 0;
    view.valid = e.valid;
    view.asid = e.asid;
    view.stamp = e.stamp;
    view.base_vpn = FirstVpnOfBlock(e.vpbn, factor_);
    view.base_ppn = Ppn{};
    view.pages_log2 = Log2(factor_);
    view.valid_vector = e.vector;
    view.block_entry = true;
    if (e.valid) {
      for (unsigned i = 0; i < factor_; ++i) {
        if ((e.vector >> i) & 1u) {
          view.translations.emplace_back(view.base_vpn + i, e.ppns[i]);
        }
      }
    }
    visitor.OnEntry(view);
  }
}

}  // namespace cpt::tlb
