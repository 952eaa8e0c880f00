// Structure-traversal interfaces for the invariant auditor.
//
// Every page table, TLB and the reservation allocator has one
// `AuditVisit(visitor)` hook, a pure virtual of pt::PageTable and tlb::Tlb,
// that reports a read-only view of its private structure: a header with the
// format rules it obeys and the counters it keeps, then one view per
// element.  A wrapper reports what it wraps; a composite reports each
// constituent under its own header.  The auditor (auditor.h) checks the
// views and names no class, so a new organization or design needs no
// auditor edit.  Only TestBackdoor reaches past the views, to seed
// corruption in tests.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/pte.h"
#include "common/types.h"

namespace cpt::check {

// ---------------------------------------------------------------------------
// Page tables
// ---------------------------------------------------------------------------

// One table's format rules and counters, reported once before its nodes.
struct PtTableView {
  std::string name{};       // Prefixes the table's defects.
  unsigned tag_shift = 0;     // A level-1 node's tag is base_vpn >> tag_shift.
  unsigned psb_factor = 16;   // Pages per partial-subblock valid vector.
  bool uniform_kind = false;  // Multi-word nodes mix no formats (S field).
  bool check_nonempty = false;  // No node but a PSB-first one is empty.
  // Its own counters: level-1 nodes (chain nodes or tree leaves), base-page
  // translations and, where a node costs 16 header bytes plus 8 per word,
  // Table 2 (paper model) bytes.
  std::uint64_t node_count = 0;
  std::uint64_t live_translations = 0;
  std::optional<std::uint64_t> paper_bytes{};
  // Trees only: the VPN bits each level consumes and each level's active
  // node count, leaf (level 1) first.
  std::vector<unsigned> level_bits{};
  std::vector<std::uint64_t> level_nodes{};
};

struct PtNodeView {
  unsigned level = 1;              // Tree level; 1 for chain nodes and leaves.
  std::uint32_t bucket = 0;        // Hash bucket the node hangs on (chains).
  std::uint32_t home_bucket = 0;   // Bucket its tag hashes to (chains).
  std::uint64_t tag = 0;           // Chain key or tree-node key.
  Vpn base_vpn{};                  // First VPN the node's word array covers.
  unsigned sub_log2 = 0;           // log2 base pages per word slot.
  const AtomicMappingWord* words = nullptr;  // Atomic (Section 3.1): load() each.
  unsigned num_words = 0;
  // Occupied slots by the node's own counter (tree leaves), recounted.
  std::optional<unsigned> live_slots{};
};

class PtAuditVisitor {
 public:
  virtual ~PtAuditVisitor() = default;
  // Starts a table: its nodes follow.
  virtual void OnTable(const PtTableView& table) { (void)table; }
  virtual void OnNode(const PtNodeView& node) = 0;
  // The chain rooted at `bucket` ran past the table's own node budget —
  // a `next` cycle.  The walk stops for that bucket.
  virtual void OnChainCycle(std::uint32_t bucket) { (void)bucket; }
};

// ---------------------------------------------------------------------------
// TLBs
// ---------------------------------------------------------------------------

// A TLB's geometry, reported once before its entries.  A TLB that reports
// none is one fully-associative set that holds any page size and keeps no
// invalid-entry counter.
struct TlbView {
  // Set s holds the entries whose (base_vpn >> set_shift) & (num_sets - 1)
  // is s.
  unsigned num_sets = 1;
  unsigned set_shift = 0;
  std::uint64_t page_sizes = ~std::uint64_t{0};  // Bit k: it holds 2^k-page entries.
  // Invalid entries by the TLB's own counter, where it keeps one.
  std::optional<std::uint64_t> invalid_entries{};
};

struct TlbEntryView {
  unsigned set = 0;
  bool valid = false;
  std::uint16_t asid = 0;
  std::uint64_t stamp = 0;
  Vpn base_vpn{};          // First VPN of the entry's span.
  unsigned pages_log2 = 0; // The span: 2^pages_log2 base pages.
  // The frame of base_vpn, where the entry maps its span to one frame run;
  // Ppn{} for an entry that keeps a frame per page (complete-subblock).
  Ppn base_ppn{};
  // Per-page valid bits of a subblock entry (bit j: page base_vpn + j);
  // 0 for an entry that maps its whole span.
  std::uint64_t valid_vector = 0;
  // Every (vpn -> ppn) translation this entry currently serves.
  std::vector<std::pair<Vpn, Ppn>> translations{};

  // Fills `translations` for an entry that maps page base_vpn + j to frame
  // base_ppn + j: every page of the span, or with `by_vector` each page whose
  // valid bit is set.  An invalid entry serves none.
  void TranslateRun(bool by_vector = false) {
    const std::uint64_t pages = std::uint64_t{1} << pages_log2;
    for (std::uint64_t j = 0; valid && j < pages; ++j) {
      if (!by_vector || (j < 64 && ((valid_vector >> j) & 1u) != 0)) {
        translations.emplace_back(base_vpn + j, base_ppn + j);
      }
    }
  }
};

class TlbAuditVisitor {
 public:
  virtual ~TlbAuditVisitor() = default;
  virtual void OnTlb(const TlbView& tlb) { (void)tlb; }
  virtual void OnEntry(const TlbEntryView& entry) = 0;
};

// ---------------------------------------------------------------------------
// Reservation allocator
// ---------------------------------------------------------------------------

enum class GroupStateView : std::uint8_t { kFree, kReserved, kFragmented };

struct ReservationGroupView {
  std::uint64_t group = 0;
  GroupStateView state = GroupStateView::kFree;
  std::uint64_t owner_key = 0;  // Meaningful when kReserved.
  std::uint32_t used_mask = 0;
};

class ReservationAuditVisitor {
 public:
  virtual ~ReservationAuditVisitor() = default;
  virtual void OnGroup(const ReservationGroupView& group) = 0;
  virtual void OnFreeListGroup(std::uint64_t group) { (void)group; }
  virtual void OnFragmentFrame(Ppn ppn) { (void)ppn; }
  // One grant-log record (only emitted when the grant log is enabled).
  // The block key is the allocator's opaque (address space, VPBN) grouping
  // key, deliberately raw.  cpt-lint: allow(raw-address-param)
  virtual void OnGrant(Ppn ppn, std::uint64_t block_key, unsigned boff, bool properly_placed) {
    (void)ppn;
    (void)block_key;
    (void)boff;
    (void)properly_placed;
  }
};

}  // namespace cpt::check
