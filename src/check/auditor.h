// Structural invariant auditor (the ISSUE's "static analysis at runtime").
//
// StructuralAuditor walks a page table, TLB, or reservation allocator
// through its AuditVisit hook (see audit_visitor.h) and verifies the
// structural invariants each organization promises:
//
//   Page tables (all four organizations):
//     - every chain node hangs on the bucket its tag hashes to, and the
//       stored base VPN is consistent with the tag (no misaligned tags);
//     - chains are acyclic and contain only in-range arena indices;
//     - no two nodes provide a valid translation for the same base page
//       (one page, one mapping — across formats and, for the multi-table
//       organization, across its two constituent tables);
//     - superpage words are size-aligned, PSB words have block-aligned PPNs
//       and no valid bits beyond the subblock factor, and multi-word nodes
//       mix no formats (the S-field discrimination of Figure 8);
//     - the table's own accounting (node count, live translations, Table 2
//       paper bytes) matches a recount of what the walk saw.
//
//   TLBs: entry tags aligned to their coverage, valid vectors within the
//   subblock factor, set-associative entries in the set their VPN indexes,
//   no duplicate tags, and the invalid-entry counter exact.
//
//   ReservationAllocator: frames_used equals the mask popcount sum, group
//   state and free list consistent, no two reserved groups owned by one
//   block, and (with the grant log on) every outstanding grant marked used,
//   with properly-placed grants really sitting at block_base + boff.
//
// Each Audit* function returns an AuditReport listing every defect found;
// an empty report means the structure is sound.  The auditor holds no state
// between calls and never mutates what it audits.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cpt::core {
class ClusteredPageTable;
class AdaptiveClusteredPageTable;
}  // namespace cpt::core
namespace cpt::pt {
class PageTable;
class HashedPageTable;
class MultiTableHashed;
class LinearPageTable;
class ForwardMappedPageTable;
}  // namespace cpt::pt
namespace cpt::tlb {
class Tlb;
}  // namespace cpt::tlb
namespace cpt::mem {
class ReservationAllocator;
}  // namespace cpt::mem

namespace cpt::check {

struct AuditReport {
  std::vector<std::string> defects;

  bool ok() const { return defects.empty(); }
  void Add(std::string defect) { defects.push_back(std::move(defect)); }
  // Appends another report's defects, prefixing each with `prefix: `.
  void Merge(const AuditReport& other, std::string_view prefix);
  // All defects joined with newlines ("" when ok).
  std::string Summary() const;
};

class StructuralAuditor {
 public:
  // Per-organization page-table audits.
  static AuditReport Audit(const core::ClusteredPageTable& table);
  static AuditReport Audit(const core::AdaptiveClusteredPageTable& table);
  static AuditReport Audit(const pt::HashedPageTable& table);
  static AuditReport Audit(const pt::MultiTableHashed& table);
  static AuditReport Audit(const pt::LinearPageTable& table);
  static AuditReport Audit(const pt::ForwardMappedPageTable& table);

  // Dispatches on the concrete organization; unknown types yield an empty
  // report (nothing to check is not a defect).
  static AuditReport AuditPageTable(const pt::PageTable& table);

  // Dispatches on the concrete TLB design.
  static AuditReport AuditTlb(const tlb::Tlb& tlb);

  static AuditReport Audit(const mem::ReservationAllocator& alloc);
};

}  // namespace cpt::check
