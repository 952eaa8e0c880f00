// Conventional single-page-size TLB: one base page per entry (Figure 11a's
// 64-entry fully-associative baseline, also the normalization reference for
// every other experiment).
#pragma once

#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/entry_columns.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class SinglePageTlb final : public Tlb {
 public:
  explicit SinglePageTlb(unsigned num_entries);

  std::string name() const override { return "single-page"; }
  void AuditVisit(check::TlbAuditVisitor& visitor) const override;

 protected:
  [[nodiscard]] CPT_HOT LookupOutcome Probe(Asid asid, Vpn vpn) override;
  [[nodiscard]] CPT_HOT EntryHit DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void DoFlush() override;

 private:
  friend class check::TestBackdoor;

  // The live entry of (asid, vpn), or entries_.size().  Tags are raw VPNs.
  unsigned Find(Asid asid, Vpn vpn) const {
    return entries_.FindLive(asid, [&](unsigned i) { return entries_.tags[i] == vpn.raw(); });
  }

  EntryColumns entries_;
  std::vector<Ppn> ppns_;
  // The simulated TLB charges no bytes for its entries, but every miss scans
  // them on the host; the columns must not silently grow.
  static_assert(EntryColumns::kEntryBytes + sizeof(decltype(ppns_)::value_type) == 27);
};

}  // namespace cpt::tlb
