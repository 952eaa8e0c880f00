// Superpage TLB: each entry maps a power-of-two-sized, aligned page
// (Figure 11b).  Entries created from base fills cover one page; superpage
// fills cover 2^SZ pages.  A PSB fill degrades to a base entry for the
// faulting page (a superpage TLB has no valid vector).
#ifndef CPT_TLB_SUPERPAGE_H_
#define CPT_TLB_SUPERPAGE_H_

#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class SuperpageTlb final : public Tlb {
 public:
  explicit SuperpageTlb(unsigned num_entries);

  std::string name() const override { return "superpage"; }

  // Fraction of hits served by entries larger than a base page.
  double SuperpageHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(super_hits_) / static_cast<double>(stats_.hits);
  }

  // ---- Invariant auditing (src/check) ----
  void AuditVisit(check::TlbAuditVisitor& visitor) const;

 protected:
  [[nodiscard]] CPT_HOT LookupOutcome Probe(Asid asid, Vpn vpn) override;
  CPT_HOT void DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void DoFlush() override;

 private:
  friend class check::TestBackdoor;

  struct Entry {
    Asid asid = 0;
    Vpn base_vpn{};
    Ppn base_ppn{};
    unsigned pages_log2 = 0;
    bool valid = false;
    std::uint64_t stamp = 0;
  };
  // The simulated TLB charges no bytes for its entries, but every reference
  // probes them on the host; the host struct must not silently grow.
  static_assert(sizeof(Entry) == 40 && alignof(Entry) == 8);

  std::vector<Entry> entries_;
  std::uint64_t super_hits_ = 0;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_SUPERPAGE_H_
