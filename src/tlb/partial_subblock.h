// Partial-subblock TLB (Figure 11c; Section 4.1).
//
// Each entry holds one tag covering an aligned page block, a single
// block-aligned PPN, and a valid bit vector — usable only when the mapped
// frames are properly placed.  Pages that are not properly placed occupy
// conventional single-page entries.  Superpage fills install as an
// all-valid-vector entry (a superpage is the degenerate partial-subblock).
#ifndef CPT_TLB_PARTIAL_SUBBLOCK_H_
#define CPT_TLB_PARTIAL_SUBBLOCK_H_

#include <vector>

#include "check/fwd.h"
#include "common/hotpath.h"
#include "tlb/tlb.h"

namespace cpt::tlb {

class PartialSubblockTlb final : public Tlb {
 public:
  PartialSubblockTlb(unsigned num_entries, unsigned subblock_factor);

  std::string name() const override { return "partial-subblock"; }

  unsigned subblock_factor() const { return factor_; }
  double SubblockHitFraction() const {
    return stats_.hits == 0 ? 0.0
                            : static_cast<double>(psb_hits_) / static_cast<double>(stats_.hits);
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
    Vpbn vpbn{};
    Ppn block_ppn{};            // Block-aligned when vector-mapped.
    std::uint16_t vector = 0;     // Valid bits; single-page entries set one.
    bool block_entry = false;     // True: PSB/superpage form; false: one page.
    Vpn single_vpn{};           // Valid when !block_entry.
    Ppn single_ppn{};
    bool valid = false;
    std::uint64_t stamp = 0;
  };
  // Exactly one 64-byte host line per entry.  The simulated TLB charges no
  // bytes for its entries, but every reference probes them on the host; the
  // host struct must not silently grow.
  static_assert(sizeof(Entry) == 64 && alignof(Entry) == 8);

  bool Covers(const Entry& e, Asid asid, Vpn vpn) const;

  unsigned factor_;
  unsigned block_log2_;
  std::vector<Entry> entries_;
  std::uint64_t psb_hits_ = 0;
};

}  // namespace cpt::tlb

#endif  // CPT_TLB_PARTIAL_SUBBLOCK_H_
