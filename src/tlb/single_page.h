// Conventional single-page-size TLB: one base page per entry (Figure 11a's
// 64-entry fully-associative baseline, also the normalization reference for
// every other experiment).
#ifndef CPT_TLB_SINGLE_PAGE_H_
#define CPT_TLB_SINGLE_PAGE_H_

#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class SinglePageTlb final : public Tlb {
 public:
  explicit SinglePageTlb(unsigned num_entries);

  std::string name() const override { return "single-page"; }

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
    Vpn vpn{};
    Ppn ppn{};
    bool valid = false;
    std::uint64_t stamp = 0;
  };
  // The simulated TLB charges no bytes for its entries, but every reference
  // probes them on the host; the host struct must not silently grow.
  static_assert(sizeof(Entry) == 40 && alignof(Entry) == 8);

  std::vector<Entry> entries_;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_SINGLE_PAGE_H_
