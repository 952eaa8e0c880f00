// Structure-traversal interfaces for the invariant auditor.
//
// Every page-table organization, TLB, and the reservation allocator exposes
// one `AuditVisit(visitor)` hook that walks its private structure and
// reports a uniform read-only view of each element.  The auditor (see
// auditor.h) implements the visitors and verifies the invariants; the
// audited classes never learn what is being checked, and the auditor never
// needs friend access (the single TestBackdoor friend exists only so tests
// can *seed* corruption, not read it).
//
// The views deliberately flatten each organization's node/entry layout into
// "what does this element claim to translate":
//   - PtNodeView:   one chain node / tree leaf and its mapping word array;
//   - TlbEntryView: one TLB entry and the (vpn -> ppn) translations it
//     currently serves;
//   - ReservationGroupView: one physical frame group and its bookkeeping.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "common/pte.h"
#include "common/types.h"

namespace cpt::check {

// ---------------------------------------------------------------------------
// Page tables
// ---------------------------------------------------------------------------

struct PtNodeView {
  std::uint32_t bucket = 0;   // Hash bucket (chain tables); tree level (trees).
  std::uint64_t tag = 0;      // Chain key (VPN/VPBN key) or leaf index.
  Vpn base_vpn{};           // First VPN the node's word array covers.
  unsigned sub_log2 = 0;      // log2 base pages per word slot.
  // Word storage is atomic tree-wide (Section 3.1); auditors snapshot each
  // slot with load() before checking it.
  const AtomicMappingWord* words = nullptr;
  unsigned num_words = 0;
  std::int32_t index = -1;    // Arena index; -1 when not arena-backed.
  PhysAddr addr{};          // Simulated physical address of the node.
};

class PtAuditVisitor {
 public:
  virtual ~PtAuditVisitor() = default;
  virtual void OnNode(const PtNodeView& node) = 0;
  // The chain rooted at `bucket` ran past the table's own node budget —
  // a `next` cycle.  The walk stops for that bucket.
  virtual void OnChainCycle(std::uint32_t bucket) { (void)bucket; }
};

// ---------------------------------------------------------------------------
// TLBs
// ---------------------------------------------------------------------------

struct TlbEntryView {
  unsigned set = 0;             // Set index; 0 for fully-associative TLBs.
  bool valid = false;
  std::uint16_t asid = 0;
  std::uint64_t stamp = 0;
  Vpn base_vpn{};             // First VPN covered (block base for PSB/CSB).
  Ppn base_ppn{};             // Base/block PPN of the entry, when one exists.
  unsigned pages_log2 = 0;      // Coverage span of the tag.
  std::uint64_t valid_vector = 0;  // One bit per covered base page.
  bool block_entry = false;     // PSB TLB: vector-mapped vs single-page form.
  // Every (vpn -> ppn) translation this entry currently serves.
  std::vector<std::pair<Vpn, Ppn>> translations;
};

class TlbAuditVisitor {
 public:
  virtual ~TlbAuditVisitor() = default;
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
