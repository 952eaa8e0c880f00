// Partial-subblock TLB (Figure 11c; Section 4.1).
//
// Each entry holds one tag covering an aligned page block, a single
// block-aligned PPN, and a valid bit vector — usable only when the mapped
// frames are properly placed.  Pages that are not properly placed occupy
// conventional single-page entries.  Superpage fills install as an
// all-valid-vector entry (a superpage is the degenerate partial-subblock).
#pragma once

#include <cstdint>
#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/entry_columns.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class PartialSubblockTlb final : public Tlb {
 public:
  PartialSubblockTlb(unsigned num_entries, unsigned subblock_factor);

  std::string name() const override { return "partial-subblock"; }
  void AuditVisit(check::TlbAuditVisitor& visitor) const override;

  // Hits served by partial-subblock entries, and their fraction.
  std::uint64_t subblock_hits() const { return psb_hits_; }
  double SubblockHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(psb_hits_) / static_cast<double>(stats_.hits);
  }

 protected:
  [[nodiscard]] CPT_HOT LookupOutcome Probe(Asid asid, Vpn vpn) override;
  [[nodiscard]] CPT_HOT EntryHit DoInsert(Asid asid, Vpn vpn, const pt::TlbFill& fill) override;
  void DoFlush() override;

 private:
  friend class check::TestBackdoor;

  // Whether entry i maps vpn, given that it is live.  A block entry's tag
  // is its block's first VPN with spans[i] masking the block offset off; a
  // single-page entry's tag is its VPN, its span mask all ones and its
  // vector all ones, so one compare serves both forms (raw bit-packing).
  bool Maps(unsigned i, Vpn vpn) const {
    return (vpn.raw() & spans_[i]) == entries_.tags[i] &&
           ((vectors_[i] >> BoffOf(vpn, factor_)) & 1u) != 0;
  }
  // The hit a probe on entry i scores.
  EntryHit HitOn(unsigned i) {
    return EntryHit{&entries_.stamps[i], blocks_[i] != 0 ? &psb_hits_ : nullptr};
  }

  unsigned factor_;
  unsigned block_log2_;
  EntryColumns entries_;
  std::vector<std::uint64_t> spans_;
  std::vector<Ppn> ppns_;  // Block-aligned PPN, or the single page's PPN.
  std::vector<std::uint16_t> vectors_;  // Valid bits; all ones when single.
  std::vector<std::uint8_t> blocks_;    // 1: PSB/superpage form; 0: one page.
  // The simulated TLB charges no bytes for its entries, but every miss scans
  // them on the host; the columns must not silently grow.
  static_assert(EntryColumns::kEntryBytes + sizeof(decltype(spans_)::value_type) +
                    sizeof(decltype(ppns_)::value_type) +
                    sizeof(decltype(vectors_)::value_type) +
                    sizeof(decltype(blocks_)::value_type) ==
                38);

  std::uint64_t psb_hits_ = 0;
};

}  // namespace cpt::tlb
