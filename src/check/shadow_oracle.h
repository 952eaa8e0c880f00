// Shadow-map differential oracle.
//
// ShadowedPageTable decorates any pt::PageTable and mirrors every mapping
// update into a plain std::unordered_map — the simplest possible "page
// table" that can serve as ground truth.  Every Lookup is then cross-checked
// against the shadow:
//
//   - a VPN the shadow maps must be found, and must translate to the
//     shadow's PPN;
//   - a VPN the shadow does not map must page-fault.
//
// Installed outermost (above the software TLB when one is configured), the
// oracle also verifies the software TLB's write-through invalidation: a
// stale cached fill surfaces as a translation mismatch.
//
// The oracle records defects instead of asserting so the experiment driver
// can aggregate them into one AuditReport alongside the structural audits;
// FinalCheck() additionally compares the organization's live-translation
// accounting against the shadow's size.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "check/auditor.h"
#include "pt/page_table.h"

namespace cpt::check {

class ShadowedPageTable final : public pt::PageTable {
 public:
  ShadowedPageTable(mem::CacheTouchModel& cache, std::unique_ptr<pt::PageTable> inner);
  ~ShadowedPageTable() override;

  // ---- PageTable interface (forwarded, mirrored, cross-checked) ----
  [[nodiscard]] std::optional<pt::TlbFill> Lookup(VirtAddr va) override;
  void LookupBlock(VirtAddr va, unsigned subblock_factor,
                   std::vector<pt::TlbFill>& out) override;
  void InsertBase(Vpn vpn, Ppn ppn, Attr attr) override;
  bool RemoveBase(Vpn vpn) override;
  pt::PtFeatures features() const override { return inner_->features(); }
  void InsertSuperpage(Vpn base_vpn, PageSize size, Ppn base_ppn, Attr attr) override;
  bool RemoveSuperpage(Vpn base_vpn, PageSize size) override;
  void UpsertPartialSubblock(Vpn block_base_vpn, unsigned subblock_factor, Ppn block_base_ppn,
                             Attr attr, std::uint16_t valid_vector) override;
  bool RemovePartialSubblock(Vpn block_base_vpn, unsigned subblock_factor) override;
  std::uint64_t ProtectRange(Vpn first_vpn, std::uint64_t npages, Attr attr) override;
  std::optional<Attr> UpdateAttrFlags(Vpn vpn, std::uint16_t set_mask,
                                      std::uint16_t clear_mask) override;
  std::uint64_t SizeBytesPaperModel() const override { return inner_->SizeBytesPaperModel(); }
  std::uint64_t SizeBytesActual() const override { return inner_->SizeBytesActual(); }
  std::uint64_t live_translations() const override { return inner_->live_translations(); }
  // Keeps the wrapped organization's name so experiment labels are unchanged.
  std::string name() const override { return inner_->name(); }
  void AuditVisit(PtAuditVisitor& visitor) const override { inner_->AuditVisit(visitor); }

  // ---- Oracle interface ----
  pt::PageTable& inner() { return *inner_; }
  const pt::PageTable& inner() const { return *inner_; }

  std::uint64_t shadow_size() const { return shadow_.size(); }
  std::uint64_t lookups_checked() const { return lookups_checked_; }

  // Defects observed so far (lookup mismatches, remove disagreements).
  const AuditReport& defects() const { return defects_; }

  // End-of-run check: the organization's live-translation count must equal
  // the shadow map's size (valid because the OS removes base PTEs before
  // promoting to superpages).  Returns accumulated + final defects.
  AuditReport FinalCheck() const;

 private:
  // How a page was mapped, so removals only erase their own kind.
  enum class Kind : std::uint8_t { kBase, kSuperpage, kPsb };
  struct ShadowEntry {
    Ppn ppn{};
    Kind kind = Kind::kBase;
  };

  void AddDefect(std::string defect);
  void CheckFill(Vpn vpn, const std::optional<pt::TlbFill>& fill);

  std::unique_ptr<pt::PageTable> inner_;
  std::unordered_map<Vpn, ShadowEntry> shadow_;
  AuditReport defects_;
  std::uint64_t suppressed_defects_ = 0;
  std::uint64_t lookups_checked_ = 0;
};

}  // namespace cpt::check
