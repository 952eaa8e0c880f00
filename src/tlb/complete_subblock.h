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
#pragma once

#include <span>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/entry_columns.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class CompleteSubblockTlb final : public Tlb {
 public:
  static constexpr unsigned kMaxFactor = 64;

  CompleteSubblockTlb(unsigned num_entries, unsigned subblock_factor);

  std::string name() const override { return "complete-subblock"; }
  void AuditVisit(check::TlbAuditVisitor& visitor) const override;

  // Block-miss prefetch: installs every page of vpn's block that the given
  // fills cover, allocating the entry if needed (one replacement at most).
  CPT_HOT void InsertBlock(Asid asid, Vpn vpn, std::span<const pt::TlbFill> fills);

 protected:
  [[nodiscard]] CPT_HOT LookupOutcome Probe(Asid asid, Vpn vpn) override;
  [[nodiscard]] CPT_HOT EntryHit DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void DoFlush() override;

 private:
  friend class check::TestBackdoor;

  // The live entry of (asid, vpbn), or entries_.size().  Tags are raw VPBNs.
  unsigned FindTag(Asid asid, Vpbn vpbn) const {
    return entries_.FindLive(asid, [&](unsigned i) { return entries_.tags[i] == vpbn.raw(); });
  }
  // FindTag, else a fresh entry for the block in the LRU victim's place.
  unsigned FindOrAllocEntry(Asid asid, Vpbn vpbn);
  // Entry i's PPN for page `boff` of its block.
  Ppn& PpnAt(unsigned i, unsigned boff) { return ppns_[std::size_t{i} * factor_ + boff]; }

  unsigned factor_;
  EntryColumns entries_;
  std::vector<std::uint64_t> vectors_;  // Valid bit per base page.
  std::vector<Ppn> ppns_;               // factor_ per entry, entry-major.
  // The simulated TLB charges no bytes for its entries, but every miss scans
  // them on the host; the columns must not silently grow.  The PPN column
  // adds factor_ * 8 bytes per entry, which no scan reads.
  static_assert(EntryColumns::kEntryBytes + sizeof(decltype(vectors_)::value_type) == 27);
  static_assert(sizeof(decltype(ppns_)::value_type) == 8);
};

}  // namespace cpt::tlb
