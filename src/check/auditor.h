// Structural invariant auditor: static analysis at runtime.
//
// StructuralAuditor walks a page table, TLB, or reservation allocator
// through its AuditVisit hook (audit_visitor.h) and checks the invariants
// its view declares, naming no organization or design:
//   - page tables: chain nodes hang on the bucket their tag hashes to; tags
//     agree with base VPNs; chains are acyclic; no base page has two valid
//     mappings across every table of one visit; superpage and PSB words are
//     aligned, PSB vectors stay within the subblock factor and, where the
//     header asks, nodes mix no formats (Figure 8's S field) and are not
//     empty; node, translation, paper-byte, leaf and per-level counters
//     match a recount;
//   - TLBs: each entry has a page size the TLB holds, sits in the set its
//     VPN indexes, is aligned to its span, keeps no valid bits beyond it and
//     translates a page; no two entries share an (asid, base VPN, page size)
//     tag; the invalid-entry counter, where kept, is exact;
//   - ReservationAllocator: frames_used equals the mask popcount sum, group
//     state and free list agree, no block owns two reserved groups, and
//     (grant log on) every grant is marked used and properly-placed grants
//     sit at block_base + boff.
// Each Audit returns every defect found; an empty report means the
// structure is sound.  The auditor holds no state between calls and never
// mutates what it audits.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace cpt::pt {
class PageTable;
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
  static AuditReport Audit(const pt::PageTable& table);
  static AuditReport Audit(const tlb::Tlb& tlb);
  static AuditReport Audit(const mem::ReservationAllocator& alloc);
};

}  // namespace cpt::check
