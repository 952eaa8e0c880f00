// Set-associative two-page-size TLB — the [Tall92] design Section 4.2's
// superpage-index hashed page table mirrors in software.
//
// A set-associative TLB cannot know a mapping's page size before indexing,
// so it always indexes with the *superpage-index* bits (the VPN bits above
// the largest page's offset).  Every entry in the selected set is then tag-
// compared under its own size: a base-page entry matches on the full VPN, a
// superpage entry on the block number.  Consequence: all base pages of one
// page block compete for one set — the same crowding that shows up as long
// chains in the superpage-index hashed table.
#pragma once

#include <vector>

#include "check/fwd.h"
#include "common/hash.h"
#include "common/hotpath.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class DualSizeSetAssocTlb final : public Tlb {
 public:
  // num_entries = num_sets * ways.  superpage_log2 is the large page size
  // (log2 base pages), also the index granularity.
  DualSizeSetAssocTlb(unsigned num_sets, unsigned ways, unsigned superpage_log2 = 4);

  std::string name() const override { return "dual-size-setassoc"; }
  void AuditVisit(check::TlbAuditVisitor& visitor) const override;

  // Conflict evictions: replacements that happened while other sets had
  // invalid entries — the set-crowding cost of superpage indexing.
  std::uint64_t conflict_evictions() const { return conflict_evictions_; }

 protected:
  [[nodiscard]] CPT_HOT LookupOutcome Probe(Asid asid, Vpn vpn) override;
  [[nodiscard]] CPT_HOT EntryHit DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void DoFlush() override;

 private:
  friend class check::TestBackdoor;

  struct Entry {
    Asid asid = 0;
    Vpn base_vpn{};
    Ppn base_ppn{};
    unsigned pages_log2 = 0;  // 0 = base page; superpage_log2 = large page.
    bool valid = false;
    std::uint64_t stamp = 0;
  };
  // The simulated TLB charges no bytes for its entries, but every reference
  // probes them on the host; the host struct must not silently grow.
  static_assert(sizeof(Entry) == 40 && alignof(Entry) == 8);

  // Set indexing always uses the superpage-index bits, whatever the entry's
  // actual size — that is the design point under test.  Raw crossing.
  unsigned SetOf(Vpn vpn) const {
    return static_cast<unsigned>((vpn.raw() >> superpage_log2_) & (num_sets_ - 1));
  }
  bool Matches(const Entry& e, Asid asid, Vpn vpn) const {
    const PageSize size{e.pages_log2};
    return e.valid && e.asid == asid &&
           SuperpageBaseVpn(vpn, size) == SuperpageBaseVpn(e.base_vpn, size);
  }

  unsigned num_sets_;
  unsigned ways_;
  unsigned superpage_log2_;
  std::vector<Entry> entries_;  // num_sets * ways.
  std::uint64_t invalid_entries_ = 0;
  std::uint64_t conflict_evictions_ = 0;
};

}  // namespace cpt::tlb
