// Superpage TLB: each entry maps a power-of-two-sized, aligned page
// (Figure 11b).  Entries created from base fills cover one page; superpage
// fills cover 2^SZ pages.  A PSB fill degrades to a base entry for the
// faulting page (a superpage TLB has no valid vector).
#pragma once

#include <cstdint>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/entry_columns.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class SuperpageTlb final : public Tlb {
 public:
  explicit SuperpageTlb(unsigned num_entries);

  std::string name() const override { return "superpage"; }
  void AuditVisit(check::TlbAuditVisitor& visitor) const override;

  // Hits served by entries larger than a base page, and their fraction.
  std::uint64_t superpage_hits() const { return super_hits_; }
  double SuperpageHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(super_hits_) / static_cast<double>(stats_.hits);
  }

 protected:
  [[nodiscard]] CPT_HOT LookupOutcome Probe(Asid asid, Vpn vpn) override;
  [[nodiscard]] CPT_HOT EntryHit DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void DoFlush() override;

 private:
  friend class check::TestBackdoor;

  // Whether entry i's span holds vpn.  Tags are the entry's aligned base
  // VPN and spans[i] masks a VPN down to its span's base (raw bit-packing).
  bool SpanHolds(unsigned i, Vpn vpn) const {
    return (vpn.raw() & spans_[i]) == entries_.tags[i];
  }
  // The hit a probe of (asid, vpn) on entry i scores.
  EntryHit HitOn(unsigned i) {
    return EntryHit{&entries_.stamps[i], log2s_[i] > 0 ? &super_hits_ : nullptr};
  }

  EntryColumns entries_;
  std::vector<std::uint64_t> spans_;  // ~(pages - 1): the span mask.
  std::vector<Ppn> ppns_;             // Base PPN of the span.
  std::vector<std::uint8_t> log2s_;   // log2 pages in the span.
  // The simulated TLB charges no bytes for its entries, but every miss scans
  // them on the host; the columns must not silently grow.
  static_assert(EntryColumns::kEntryBytes + sizeof(decltype(spans_)::value_type) +
                    sizeof(decltype(ppns_)::value_type) +
                    sizeof(decltype(log2s_)::value_type) ==
                36);

  std::uint64_t super_hits_ = 0;
};

}  // namespace cpt::tlb
