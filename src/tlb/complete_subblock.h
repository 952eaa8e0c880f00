// Complete-subblock TLB (Figure 11d; Sections 4.1 and 4.4).
//
// One tag covers an aligned page block, with an independent PPN and valid
// bit per base page (like a clustered PTE in hardware).  Two miss kinds:
//   - block miss:    no entry holds the tag — allocates an entry (LRU evict);
//   - subblock miss: the tag is present but the page's valid bit is clear —
//     fills the slot without any replacement.
// With block-miss prefetch (Section 4.4) the miss handler loads every
// resident mapping of the block at once, eliminating subblock misses for
// pages resident at block-miss time.  Prefetch never evicts anything extra,
// so it cannot pollute the TLB.
#ifndef CPT_TLB_COMPLETE_SUBBLOCK_H_
#define CPT_TLB_COMPLETE_SUBBLOCK_H_

#include <array>
#include <span>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class CompleteSubblockTlb final : public Tlb {
 public:
  static constexpr unsigned kMaxFactor = 64;

  CompleteSubblockTlb(unsigned num_entries, unsigned subblock_factor);

  std::string name() const override { return "complete-subblock"; }

  // Block-miss prefetch: installs every page of vpn's block that the given
  // fills cover, allocating the entry if needed (one replacement at most).
  CPT_HOT void InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills);

  unsigned subblock_factor() const { return factor_; }

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
    Vpbn vpbn{};
    std::uint64_t vector = 0;  // Valid bit per base page.
    std::array<Ppn, kMaxFactor> ppns{};
    bool valid = false;
    std::uint64_t stamp = 0;
  };
  // The simulated TLB charges no bytes for its entries, but every reference
  // probes them on the host; the host struct must not silently grow.
  static_assert(sizeof(Entry) == 552 && alignof(Entry) == 8);

  Entry* FindTag(Asid asid, Vpbn vpbn);
  Entry& AllocEntry(Asid asid, Vpbn vpbn);

  unsigned factor_;
  std::vector<Entry> entries_;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_COMPLETE_SUBBLOCK_H_
